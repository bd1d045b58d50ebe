#!/bin/sh
# Live smoke: the real TLS stack over loopback sockets under the race
# detector. A short `pqbench live` run for the headline PQ suite, twice, and
# a check that the seeded arrival schedule (the deterministic half of the
# subsystem; measured latencies are not) produces the same digest both times.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

go build -race -o "$tmpdir/pqbench-race" ./cmd/pqbench
d1=$("$tmpdir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    tee /dev/stderr | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
d2=$("$tmpdir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    echo "live smoke: schedule digest not reproducible: '$d1' vs '$d2'"
    exit 1
fi
echo "live-smoke OK: schedule digest $d1 reproducible across runs"
