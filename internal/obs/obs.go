// Package obs is the observability layer: handshake span tracing, phase
// aggregation, and a small metrics registry with Prometheus text-format
// exposition.
//
// The package is a leaf — it imports only the standard library and
// internal/stats — so every layer of the stack (tls13 hooks, the harness
// drive loop, loadgen, the live server runtime) can feed it without import
// cycles. The tls13.Hooks seam is satisfied structurally: Tracer and
// PhaseHooks implement Phase/Charge without obs importing tls13.
//
// Three consumers share the code here:
//
//   - pqbench phases: per-handshake Tracers collected into a Collector,
//     exported as JSONL and aggregated into a per-phase latency table.
//   - pqtls-server / pqbench live: a Registry of counters, gauges, and
//     log-bucketed latency histograms served as /metrics.
//   - pqtls-client -trace: a single Tracer aggregated into a mini-table.
package obs
