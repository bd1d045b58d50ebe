#!/bin/sh
# Live smoke: the real TLS stack over loopback sockets under the race
# detector. A short closed-loop `pqbench live` run for the headline PQ suite
# from four concurrent clients, full and resumed; every handshake must
# complete.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

go build -race -o "$tmpdir/pqbench-race" ./cmd/pqbench
for mode in "" "-resume"; do
    # $mode is deliberately unquoted: empty means no flag.
    "$tmpdir/pqbench-race" live -kem kyber768 -sig dilithium3 -n 40 -conns 4 $mode |
        tee "$tmpdir/out.txt"
    if ! grep -q '^client: completed 40 .* failed 0$' "$tmpdir/out.txt"; then
        echo "live smoke: ${mode:-full} run did not complete 40 handshakes without failure"
        exit 1
    fi
done
echo "live-smoke OK: 40 full and 40 resumed handshakes, none failed"
