//go:build linux

package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pqtls"
)

func TestMain(m *testing.M) {
	// The campaign workload times its set-up by re-executing the running
	// binary, which under `go test` is this test binary.
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(campaignSetupProbe())
	}
	os.Exit(m.Run())
}

func TestPercentilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95},
		{199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if got := median(xs); got != 500 {
		t.Errorf("median = %v, want 500", got)
	}
	if got := quantile(sortedCopy(xs), 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990: ten samples lie beyond it", got)
	}
}

// The A/A table must read the spread the driver computes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, Span: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{Trace: 1, Span: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, Span: 5, Parent: 3, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := durationByName(spans)["root"]; got != 100 {
		t.Errorf("durationByName[root] = %v, want 100", got)
	}

	var nilRec *recorder
	nilRec.end(nilRec.begin(1, 0, "x")) // a nil recorder records nothing and must not panic
	rec := newRecorder()
	id := rec.begin(7, 0, "outer")
	rec.end(rec.begin(7, id, "inner"))
	rec.end(id)
	if len(rec.spans) != 2 || rec.spans[1].Parent != id || rec.spans[0].End < rec.spans[1].End {
		t.Errorf("recorder spans = %+v", rec.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(b)), "\n"); len(lines) != 2 ||
		!strings.Contains(lines[1], `"trace":7,"span":2,"parent":1,"name":"inner","start_ns":`) {
		t.Errorf("span file = %q", b)
	}
}

// A phase's metric is the median over its segments, and a campaign segment's
// latencies are per-cell medians over its passes.
func TestSegmentStatistics(t *testing.T) {
	// Two passes over three cells, cell after cell.
	got := cellMedians([]float64{1, 10, 100, 3, 30, 300, 2, 20, 200}, 3)
	if want := []float64{2, 20, 200}; !reflect.DeepEqual(got, want) {
		t.Errorf("cellMedians = %v, want %v", got, want)
	}
	total := &phase{}
	for i, index := range []float64{1, 2, 4} {
		p := &phase{
			lats:    []time.Duration{time.Duration(i+1) * 4 * time.Millisecond},
			elapsed: time.Second, hs: 100, attempted: 100, selfCPU: 400 * time.Millisecond,
		}
		p.summarise(index)
		total.merge(p)
	}
	// Segments read 4/1, 8/2, 12/4 ms: median 4. Throughput 100, 200, 400.
	if got := total.stat(func(s segStat) float64 { return s.p50 }); got != 4 {
		t.Errorf("median p50 = %v, want 4", got)
	}
	if got := total.stat(func(s segStat) float64 { return s.perS }); got != 200 {
		t.Errorf("median throughput = %v, want 200", got)
	}
	if got := total.stat(func(s segStat) float64 { return s.cpuPerHS }); got != 2 {
		t.Errorf("median CPU = %v ms, want 2", got)
	}
	if total.indexLo != 1 || total.indexHi != 4 || total.hs != 300 {
		t.Errorf("merged phase = %+v", total)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(1, 1000, 2*time.Second)
	b := poissonSchedule(1, 1000, 2*time.Second)
	c := poissonSchedule(2, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 2*time.Second {
		t.Error("arrivals out of order or past the phase")
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (pq) tls (x) S 1 4242 4242 0 -1 4194560 512 0 0 0 137 63 0 0 20 0 7 0 1000 1 1 18446744073709551615\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 2s (137+63 ticks)", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := []byte("Name:\tpqtls-server\nVmHWM:\t   13716 kB\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n")
	if v, err := statusField(status, "VmHWM"); err != nil || v != 13716 {
		t.Errorf("VmHWM = %v, %v", v, err)
	}
	if v, err := statusField(status, "nonvoluntary_ctxt_switches"); err != nil || v != 7 {
		t.Errorf("nonvoluntary_ctxt_switches = %v, %v", v, err)
	}
	if _, err := statusField(status, "VmRSS"); err == nil {
		t.Error("a missing field parsed")
	}
	// The live readers against this process.
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
	if _, err := procCtxSwitches(os.Getpid()); err != nil {
		t.Errorf("procCtxSwitches(self): %v", err)
	}
}

func TestTraceArg(t *testing.T) {
	got := normalizeTraceArg([]string{"--workload", "pq_full", "--trace", "0", "--seed", "1", "-trace"})
	want := []string{"--workload", "pq_full", "-trace=0", "--seed", "1", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeTraceArg = %q, want %q", got, want)
	}
}

// smokeEnv builds the server into a temporary directory.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.setupRuns = 1
	e.segments = 1
	e.ref.pairs = 2
	t.Cleanup(e.ref.close)
	e.outDir = t.TempDir()
	return e
}

func metricNames(res *result) []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n+" "+res.Metrics[n].Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmoke drives each workload's code path for a fraction of a second
// against the child server, and holds what the command prints to what
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e := smokeEnv(t)
	var endToEnd, perLayer []string
	for _, d := range e.decl.EndToEnd {
		endToEnd = append(endToEnd, d.Name+" "+d.Unit)
	}
	for _, d := range e.decl.PerLayer {
		perLayer = append(perLayer, d.Name+" "+d.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	if len(e.decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(e.decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(e.decl.Workloads) && e.decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, e.decl.Workloads[i].Name, w.name)
		}
		// A rate and a latency limit any build keeps, the race detector's
		// included, next to other packages' tests: the smoke checks the
		// code path, not the capacity.
		w.rate, w.p99Limit = 20, time.Second
		res, err := runEndToEnd(context.Background(), e, w, goldenSeed, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res.finish()
		if !res.Correct {
			t.Errorf("%s: checks failed: %v", w.name, res.problems)
		}
		if got := metricNames(res); !reflect.DeepEqual(got, endToEnd) {
			t.Errorf("%s prints %v\nBENCHMARK.json declares %v", w.name, got, endToEnd)
		}
		for name, m := range res.Metrics {
			// CPU time has a 10 ms tick, which a few handshakes do not fill.
			if m.Value < 0 || m.Value == 0 && name != "cpu_ms_per_hs" {
				t.Errorf("%s: %s = %v, an end-to-end metric may never be 0", w.name, name, m.Value)
			}
		}
	}

	w, _ := workloadByName("classic_full")
	w.rate = 20
	res, err := runTraced(context.Background(), e, w, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricNames(res); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("the traced run prints %v\nBENCHMARK.json declares %v", got, perLayer)
	}
	if _, err := os.Stat(filepath.Join(e.outDir, "trace_classic_full.jsonl")); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

// A client that trusts another root must see every handshake fail, and the
// run must come out incorrect.
func TestWrongRootFailsTheRun(t *testing.T) {
	e := smokeEnv(t)
	srv, err := startServer(context.Background(), e.serverBin, e.dir, "x25519", "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	other, _, err := pqtls.SelfSigned("PQTLS Root CA", "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	tgt := newTarget(srv.addr, "x25519", "ed25519", pqtls.NewCertPool(other))
	if err := tgt.prime(false); err == nil {
		t.Error("the first handshake verified under the wrong root")
	}
	p := seqPhase(context.Background(), tgt, 50*time.Millisecond, nil, 0)
	res := newResult()
	res.addPhase("seq", p)
	res.finish()
	if p.attempted == 0 || p.failed != p.attempted || res.Correct {
		t.Errorf("%d attempted, %d failed, correct=%v", p.attempted, p.failed, res.Correct)
	}

	srv.stop()
	select {
	case <-srv.exited:
	default:
		t.Error("stop returned before the child was reaped")
	}
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(srv.pid()))); err == nil {
		t.Error("the child is still there after stop")
	}
}

// A golden file that differs in one byte must fail the campaign check.
func TestCorruptGoldenFailsTheRun(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{goldenDir: filepath.Join(root, "bench", "golden")}
	good, err := os.ReadFile(goldenPath(e))
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if _, err := referenceRows(e, goldenSeed, res); err != nil {
		t.Fatal(err)
	}
	res.finish()
	if !res.Correct {
		t.Fatalf("the committed golden does not match: %v", res.problems)
	}

	e.goldenDir = t.TempDir()
	bad := bytes.Replace(good, []byte("19570"), []byte("19571"), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("the golden no longer holds the value this test corrupts")
	}
	if err := os.WriteFile(goldenPath(e), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	res = newResult()
	if _, err := referenceRows(e, goldenSeed, res); err != nil {
		t.Fatal(err)
	}
	res.finish()
	if res.Correct || res.Failed != 1 {
		t.Errorf("a corrupted golden passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
