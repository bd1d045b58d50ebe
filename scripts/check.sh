#!/bin/sh
# CI gate: the one definition of what `make check` runs. Fails on the first
# broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:"
    echo "$fmt_out"
    exit 1
fi

echo "==> go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping"
fi

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> go test -race"
go test -race ./...

echo "==> fuzz smoke (${FUZZTIME:-5s} per target)"
for pair in internal/tls13:FuzzClientHelloParse internal/tls13:FuzzServerHelloParse \
    internal/tls13:FuzzRecordDeprotect internal/crypto/sha3:FuzzSpongeVsReference; do
    go test "./${pair%%:*}" -run '^$' -fuzz "${pair#*:}" -fuzztime "${FUZZTIME:-5s}"
done

echo "==> live smoke: loopback handshakes under -race, schedule digest reproducible"
livedir=$(mktemp -d)
go build -race -o "$livedir/pqbench-race" ./cmd/pqbench
d1=$("$livedir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    tee /dev/stderr | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
d2=$("$livedir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    rm -rf "$livedir"
    echo "live smoke: schedule digest not reproducible: '$d1' vs '$d2'"
    exit 1
fi

echo "==> dist smoke: coordinator/worker under -race, merged digest equals single-process"
"$livedir/pqbench-race" dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
    -rate 80 -duration 1s -start-delay 50ms -heartbeat-timeout 2s
echo "==> dist smoke: kill one worker mid-run, reassignment must keep totals exact"
"$livedir/pqbench-race" dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
    -rate 80 -duration 1s -start-delay 50ms \
    -heartbeat-timeout 400ms -kill-worker-after 500ms
rm -rf "$livedir"

echo "==> phases smoke: span traces + Prometheus /metrics end to end"
sh scripts/phases_smoke.sh

echo "==> timeline smoke: windowed telemetry artifacts, fleet merge digest-exact"
sh scripts/timeline_smoke.sh

echo "==> determinism spot check: pqbench all-kem, workers 1 vs 8"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/pqbench" ./cmd/pqbench
"$tmpdir/pqbench" all-kem -samples 3 -workers 1 >"$tmpdir/w1.txt" 2>/dev/null
"$tmpdir/pqbench" all-kem -samples 3 -workers 8 >"$tmpdir/w8.txt" 2>/dev/null
cmp "$tmpdir/w1.txt" "$tmpdir/w8.txt"

echo "OK"
