GO ?= go
FUZZTIME ?= 5s
# 5 samples per cell matches the committed results/table4*.txt provenance
# (see EXPERIMENTS.md).
TABLE4FLAGS ?= -samples 5 -timing model

.PHONY: check lint vet build test race fuzz-smoke live-smoke dist-smoke phases-smoke timeline-smoke table4 clean

# check is the CI entry point. scripts/check.sh is its one definition:
# static checks, build, the full test suite, the race-enabled suite, a short
# fuzz pass over each wire-parsing target, the live, dist, phases and
# timeline smokes, and the workers-1-vs-8 determinism diff. The targets below
# run single steps of it by hand. Performance is measured by
# `bash bench/run.sh` (BENCHMARK.json), not here.
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

# One bounded fuzz run per package:target pair; Go requires -fuzz to match a
# single target per invocation, hence the loop.
FUZZ_TARGETS = internal/tls13:FuzzClientHelloParse internal/tls13:FuzzServerHelloParse \
	internal/tls13:FuzzRecordDeprotect internal/crypto/sha3:FuzzSpongeVsReference
fuzz-smoke:
	for pair in $(FUZZ_TARGETS); do \
		$(GO) test ./$${pair%%:*} -run '^$$' -fuzz $${pair#*:} -fuzztime $(FUZZTIME) || exit 1; \
	done

# live-smoke drives the real TLS stack over loopback sockets under the race
# detector: a short pqbench live run for the headline PQ suite, twice, and a
# check that the seeded arrival schedule (the deterministic half of the
# subsystem — measured latencies are not) produces the same digest both
# times.
live-smoke:
	$(GO) build -race -o bin/pqbench-race ./cmd/pqbench
	@d1=$$(bin/pqbench-race live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s | \
		tee /dev/stderr | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p'); \
	d2=$$(bin/pqbench-race live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s | \
		sed -n 's/.*digest \([0-9a-f]*\).*/\1/p'); \
	if [ -z "$$d1" ] || [ "$$d1" != "$$d2" ]; then \
		echo "live-smoke: schedule digest not reproducible: '$$d1' vs '$$d2'"; exit 1; fi; \
	echo "live-smoke OK: schedule digest $$d1 reproducible across runs"

# dist-smoke exercises the distributed load-generation subsystem end to end
# under the race detector, in Simulate mode (where the merged Result is a
# pure function of the arrival plan, so exact equality is checkable). Leg 1
# splits one plan across two self-spawned dist-worker processes; -verify
# fails unless the merged digest, counters, and p50/p95/p99 equal a
# single-process run of the identical plan. Leg 2 SIGKILLs one worker
# mid-run: the coordinator must detect the death by heartbeat timeout,
# reassign the orphaned shard to the survivor, and still verify exactly.
dist-smoke:
	$(GO) build -race -o bin/pqbench-race ./cmd/pqbench
	bin/pqbench-race dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
		-rate 80 -duration 1s -start-delay 50ms -heartbeat-timeout 2s
	bin/pqbench-race dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
		-rate 80 -duration 1s -start-delay 50ms \
		-heartbeat-timeout 400ms -kill-worker-after 500ms
	@echo "dist-smoke OK: distributed run reproduces the single-process digest (incl. kill/reassign leg)"

# phases-smoke exercises the observability subsystem end to end: `pqbench
# phases` for a classical and a PQ cell (JSONL schema self-check, flight-wait
# visible), then a real pqtls-server scraped over /metrics and /healthz.
phases-smoke:
	sh scripts/phases_smoke.sh

# timeline-smoke exercises the streaming-telemetry subsystem end to end: a
# 2-worker distributed Simulate run under the race detector with -window
# telemetry on, where -verify asserts the merged fleet timeline is
# digest-exact vs the single-process run, plus schema checks on the written
# .jsonl/.csv artifacts and a round-trip through `pqbench timeline`.
timeline-smoke:
	sh scripts/timeline_smoke.sh

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
