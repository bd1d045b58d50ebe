GO ?= go
FUZZTIME ?= 5s
# 5 samples per cell matches the committed results/table4*.txt provenance
# (see EXPERIMENTS.md).
TABLE4FLAGS ?= -samples 5

.PHONY: check lint vet build test race fuzz-smoke live-smoke phases-smoke table4 clean

# check is the CI entry point. scripts/check.sh is its one definition:
# static checks, build, the full test suite, the race-enabled suite, a short
# fuzz pass over each wire-parsing target, the live and phases smokes, and
# the workers-1-vs-8 determinism diff. The targets below run single steps of
# it by hand. Performance is measured by `bash bench/run.sh`
# (BENCHMARK.json), not here.
check:
	sh scripts/check.sh

# lint runs the always-available static checks (gofmt, go vet) and, when
# installed, staticcheck. The toolchain image does not bundle staticcheck,
# so its absence is not an error.
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness and crypto packages hold the shared state the parallel engine
# touches (registries, credential cache, lazy tables); -race across the tree
# is the guard that keeps them honest.
race:
	$(GO) test -race ./...

# fuzz-smoke gives every Fuzz* target in the module a bounded run of
# FUZZTIME; scripts/fuzz_smoke.sh finds the targets with `go test -list`.
fuzz-smoke:
	FUZZTIME=$(FUZZTIME) sh scripts/fuzz_smoke.sh

# live-smoke drives the real TLS stack over loopback sockets under the race
# detector, full and resumed, and checks that every handshake completes.
live-smoke:
	sh scripts/live_smoke.sh

# phases-smoke scrapes a real pqtls-server over /metrics and /healthz after
# one pqtls-client handshake; the `pqbench phases` traces are tier-1 goldens
# (TestPhasesGolden).
phases-smoke:
	sh scripts/phases_smoke.sh

# table4 regenerates the constrained-network tables (Table 4a/4b) with the
# parallel engine, verifies worker-count determinism (the -workers 8 output
# must be byte-identical to -workers 1), and shows what changed vs. the
# committed results. The loss-monotonicity gate runs inside pqbench.
table4:
	$(GO) build -o bin/pqbench ./cmd/pqbench
	bin/pqbench all-kem-scenarios $(TABLE4FLAGS) -workers 8 > results/table4a.txt
	bin/pqbench all-sig-scenarios $(TABLE4FLAGS) -workers 8 > results/table4b.txt
	bin/pqbench all-kem-scenarios $(TABLE4FLAGS) -workers 1 | cmp - results/table4a.txt
	bin/pqbench all-sig-scenarios $(TABLE4FLAGS) -workers 1 | cmp - results/table4b.txt
	git diff --stat -- results/table4a.txt results/table4b.txt

clean:
	$(GO) clean ./...
	rm -f *.pcap
	rm -rf bin
