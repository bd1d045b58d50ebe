#!/bin/sh
# Fuzz smoke: a bounded run of every Fuzz* target in the module,
# ${FUZZTIME:-5s} each. `go test -list` finds the targets, so a new one is
# covered without being listed anywhere. Go runs one fuzz target per
# invocation, hence the loop.
set -eu

cd "$(dirname "$0")/.."

# `go test -list` prints each package's matching names, then its "ok" line.
list=$(go test -list '^Fuzz' ./...)
targets=$(echo "$list" |
    awk '/^Fuzz/ { names = names " " $1; next }
         /^ok/   { if (names != "") print $2 names; names = "" }')
if [ -z "$targets" ]; then
    echo "fuzz smoke: no Fuzz targets found"
    exit 1
fi

echo "$targets" | while read -r pkg names; do
    for name in $names; do
        go test "$pkg" -run '^$' -fuzz "^${name}\$" -fuzztime "${FUZZTIME:-5s}"
    done
done
