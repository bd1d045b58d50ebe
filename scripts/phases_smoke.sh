#!/bin/sh
# Metrics smoke: a real pqtls-server scraped over HTTP — /healthz answers,
# one pqtls-client handshake lands in /metrics, and every headline metric
# family is exposed in Prometheus text format. The `pqbench phases`
# breakdown is checked by TestPhasesGolden (cmd/pqbench), which compares
# its traces and aggregates with the committed results/phases_* files.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

go build -o "$tmpdir/pqtls-server" ./cmd/pqtls-server
go build -o "$tmpdir/pqtls-client" ./cmd/pqtls-client

echo "==> metrics: pqtls-server with /metrics + /healthz"
LISTEN=127.0.0.1:18455
METRICS=127.0.0.1:18456
"$tmpdir/pqtls-server" -listen "$LISTEN" -metrics "$METRICS" \
    -kem kyber768 -sig dilithium3 -root "$tmpdir/root.cert" \
    >"$tmpdir/server.log" 2>&1 &
server_pid=$!

# Wait for /healthz (the metrics listener comes up with the TLS listener).
ok=""
for _ in $(seq 1 50); do
    if curl -fsS "http://$METRICS/healthz" >/dev/null 2>&1; then ok=1; break; fi
    kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$tmpdir/server.log"; exit 1; }
    sleep 0.1
done
[ -n "$ok" ] || { echo "healthz never came up"; cat "$tmpdir/server.log"; exit 1; }

"$tmpdir/pqtls-client" -connect "$LISTEN" -kem kyber768 -sig dilithium3 \
    -root "$tmpdir/root.cert" -n 1 -trace | tee "$tmpdir/client.txt"
grep -q "phase breakdown" "$tmpdir/client.txt"

curl -fsS "http://$METRICS/metrics" >"$tmpdir/metrics.txt"
for fam in pqtls_handshakes_total pqtls_inflight_connections pqtls_draining \
           pqtls_tickets_issued_total pqtls_handshake_duration_seconds \
           pqtls_handshake_phase_seconds pqtls_pubkey_ops_total; do
    grep -q "^# TYPE $fam " "$tmpdir/metrics.txt" || {
        echo "metric family $fam missing from /metrics"; cat "$tmpdir/metrics.txt"; exit 1; }
done
grep -q '^pqtls_handshakes_total{result="ok"} 1$' "$tmpdir/metrics.txt" || {
    echo "handshake did not land in pqtls_handshakes_total"; cat "$tmpdir/metrics.txt"; exit 1; }

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "phases-smoke OK"
