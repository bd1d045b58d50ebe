//go:build linux

// Command pqperf is the repository's one benchmark. It measures the system
// from outside: the server is the shipped cmd/pqtls-server binary run as a
// child process, the client is a single-process generator built on the root
// pqtls package, traffic crosses real TCP over loopback (not a link), and
// only the default configuration runs. bench/README.md explains every
// workload and metric.
//
//	go run ./bench/pqperf -seed 1            # four workloads, end-to-end metrics
//	go run ./bench/pqperf -seed 1 -trace     # per-layer metrics and span files
//	go run ./bench/pqperf -repeat 10         # A/A: spreads against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// seqShare is the part of the measured seconds spent in the seq phase;
	// the load phase takes the rest.
	seqShare = 0.4
	// warmShare is the closed-loop traffic discarded before the seq phase,
	// as a share of the measured seconds (about 1 s of a 24 s run).
	warmShare = 0.04
	// setupRuns is how many times a run sets up; setup_s is their median.
	setupRuns = 5
	// phaseSegments is the number of segments a phase is cut into, each with
	// its own host index (see ref.go).
	phaseSegments = 5
)

// workload is one named set of inputs. kem, sig, resumed, rate and p99Limit
// also parameterise the traced stages, which every workload runs.
type workload struct {
	name     string
	kem, sig string
	resumed  bool
	// rate is the load phase's offered rate in handshakes per second: 30 to
	// 45 % of what the closed loop at nproc connections in flight sustained
	// when the benchmark was sized (README), and a constant so that a faster
	// or slower change sees the same load.
	rate     float64
	p99Limit time.Duration
	campaign bool
}

var workloads = []workload{
	{name: "pq_full", kem: "kyber768", sig: "dilithium3", rate: 200, p99Limit: 25 * time.Millisecond},
	{name: "classic_full", kem: "x25519", sig: "ed25519", rate: 600, p99Limit: 10 * time.Millisecond},
	{name: "pq_resumed", kem: "kyber768", sig: "dilithium3", resumed: true, rate: 600, p99Limit: 10 * time.Millisecond},
	// The grid has no socket layer of its own; its traced live stages run
	// its first suite at pq_full's shape.
	{name: "campaign_grid", kem: "kyber768", sig: "dilithium3", rate: 200, p99Limit: 25 * time.Millisecond, campaign: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value, in the shape BENCHMARK.json's consumers read.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	info     []string // human-readable lines that are not metrics
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, value float64, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, n: n}
}

// check counts one correctness check; a failed one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problem(format, args...)
	}
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// addPhase folds a phase's handshakes into the run's attempt count.
func (r *result) addPhase(name string, p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.firstErr != nil {
		r.problem("%s: %d of %d handshakes failed, first: %v", name, p.failed, p.attempted, p.firstErr)
	}
}

// finish settles the verdict once every check has been counted.
func (r *result) finish() { r.Correct = r.Failed == 0 && r.Attempted > 0 }

// env is what every run of this process shares.
type env struct {
	dir       string // absolute buildDir
	outDir    string // span files
	goldenDir string
	serverBin string
	buildS    float64
	nproc     int
	setupRuns int
	segments  int
	decl      *declaration
	ref       *reference
}

// newEnv builds the server into dir; an empty dir means buildDir under the
// repository root.
func newEnv(ctx context.Context, dir string) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if dir == "" {
		dir = filepath.Join(root, buildDir)
	}
	e := &env{
		dir:       dir,
		outDir:    filepath.Join(root, "bench", "out"),
		goldenDir: filepath.Join(root, "bench", "golden"),
		nproc:     runtime.NumCPU(),
		setupRuns: setupRuns,
		segments:  phaseSegments,
		decl:      decl,
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildServer(ctx, root, e.dir)
	if err != nil {
		return nil, err
	}
	e.serverBin, e.buildS = bin, took.Seconds()
	if e.ref, err = newReference(); err != nil {
		return nil, err
	}
	return e, nil
}

// liveServer is one server child and the generator's view of it.
type liveServer struct {
	*serverChild
	tgt *target
}

// setUpLive starts n servers, one after the other, performs the first
// verified handshake against each, and reports the median time from exec to
// that handshake. It keeps all of them: every server draws its own signing
// key, Dilithium's rejection loop makes the signing-time tail differ from key
// to key by about a tenth, and a run that spreads its segments over several
// keys does not inherit the luck of one.
func setUpLive(ctx context.Context, e *env, w workload, n int) (servers []liveServer, setupS float64, err error) {
	defer func() {
		if err != nil {
			stopAll(servers)
		}
	}()
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		srv, err := startServer(ctx, e.serverBin, e.dir, w.kem, w.sig)
		if err != nil {
			return servers, 0, err
		}
		tgt := newTarget(srv.addr, w.kem, w.sig, srv.roots)
		servers = append(servers, liveServer{srv, tgt})
		if err := tgt.prime(w.resumed); err != nil {
			return servers, 0, fmt.Errorf("first handshake: %w\nserver: %s", err, srv.stderr)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return servers, median(times), nil
}

func stopAll(servers []liveServer) {
	for _, s := range servers {
		s.stop()
	}
}

// liveRun is one two-process measurement: set-up, warm-up, seq phase, load
// phase. Its times are in reference-host units.
type liveRun struct {
	setupS              float64
	seq, load           *phase
	resumedOverFullWire float64
	serverLog           string // a server's last words after the interrupt
}

// loadSegment runs one open-loop segment at the workload's rate and reads
// both processes' CPU around it. The server's counters are read before it is
// signalled.
func loadSegment(ctx context.Context, e *env, w workload, srv liveServer, seed int64, dur time.Duration) (*phase, error) {
	sched := poissonSchedule(seed, w.rate, dur)
	srvCPU0, selfCPU0, err := cpuOfBoth(srv)
	if err != nil {
		return nil, err
	}
	p := loadPhase(ctx, srv.tgt, sched, dur, w.p99Limit, e.nproc)
	srvCPU1, selfCPU1, err := cpuOfBoth(srv)
	if err != nil {
		return nil, fmt.Errorf("after the load phase: %w\nserver: %s", err, srv.stderr)
	}
	p.serverCPU, p.selfCPU = srvCPU1-srvCPU0, selfCPU1-selfCPU0
	return p, nil
}

// cpuOfBoth reads the CPU time of the server child and of this process.
func cpuOfBoth(srv liveServer) (server, self time.Duration, err error) {
	if server, err = procCPU(srv.pid()); err != nil {
		return 0, 0, err
	}
	self, err = procCPU(os.Getpid())
	return server, self, err
}

func runLive(ctx context.Context, e *env, w workload, seed int64, warm, seqDur, loadDur time.Duration) (*liveRun, error) {
	before, err := e.ref.index()
	if err != nil {
		return nil, err
	}
	servers, setupS, err := setUpLive(ctx, e, w, e.setupRuns)
	if err != nil {
		return nil, err
	}
	defer stopAll(servers)
	after, err := e.ref.index()
	if err != nil {
		return nil, err
	}
	out := &liveRun{setupS: setupS / ((before + after) / 2)}

	// Segment i of either phase runs against server i, in turn.
	server := func(i int) liveServer { return servers[i%len(servers)] }
	segs := time.Duration(e.segments)
	for _, s := range servers {
		seqPhase(ctx, s.tgt, warm/time.Duration(len(servers)), nil, 0)
	}
	out.seq, err = measureSegments(e.ref, e.segments, func(i int) (*phase, error) {
		return seqPhase(ctx, server(i).tgt, seqDur/segs, nil, 0), nil
	})
	if err != nil {
		return nil, err
	}
	out.load, err = measureSegments(e.ref, e.segments, func(i int) (*phase, error) {
		return loadSegment(ctx, e, w, server(i), seed*int64(e.segments)+int64(i), loadDur/segs)
	})
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	stopAll(servers)
	out.serverLog = servers[0].stderr.summaryLine()
	if w.resumed && out.seq.completed() > 0 {
		perHS := float64(out.seq.wire) / float64(out.seq.completed())
		out.resumedOverFullWire = perHS / float64(servers[0].tgt.fullBytes)
	}
	return out, nil
}

// checkLive applies the correctness checks every two-process run must pass.
func (r *result) checkLive(w workload, lr *liveRun) {
	r.addPhase("seq", lr.seq)
	r.addPhase("load", lr.load)
	r.check(lr.seq.completed() > 0 && lr.load.completed() > 0, "a phase completed no handshake")
	achieved := float64(lr.load.onTime) / float64(lr.load.attempted)
	r.check(achieved >= minAchieved,
		"load phase completed %.3f of the offered arrivals in time, below %.2f: the backlog grows and the run is void",
		achieved, minAchieved)
	if w.resumed {
		r.check(lr.resumedOverFullWire < 0.4,
			"resumed handshake moves %.2f of the full handshake's bytes, want below 0.40", lr.resumedOverFullWire)
	}
}

// share converts a share of the measured seconds into a duration.
func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(ctx context.Context, e *env, w workload, seed int64, seconds float64) (*result, error) {
	if w.campaign {
		return runCampaignGrid(ctx, e, seed, seconds)
	}
	lr, err := runLive(ctx, e, w, seed, share(seconds, warmShare), share(seconds, seqShare), share(seconds, 1-seqShare))
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.checkLive(w, lr)
	seq, load := lr.seq, lr.load
	if seq.completed() == 0 || load.completed() == 0 {
		return res, nil
	}
	res.setPhaseMetrics(seq, load)
	done := seq.completed() + load.completed()
	res.set("wire_bytes_per_hs", "B", float64(seq.wire+load.wire)/float64(done), done)
	res.set("setup_s", "s", lr.setupS, e.setupRuns)

	_, lag99 := p50p99(durationsMs(load.lags))
	res.infof("load phase: open loop, Poisson arrivals at %.0f hs/s, at most %d in flight, timed from scheduled arrival",
		w.rate, e.nproc)
	res.infof("load.achieved_ratio %.4f  load.slo_miss_ratio %.4f (p99 limit %v)  load.sched_lag_p99_ms %.3f",
		float64(load.onTime)/float64(load.attempted), load.sloMissRatio(w.p99Limit), w.p99Limit, lag99)
	res.infof("first of %d servers: %s", e.setupRuns, lr.serverLog)
	res.infof("as measured: server %.4f ms CPU per handshake (%.0f hs/s per core), generator %.4f ms",
		ms(load.serverCPU)/float64(load.hs), float64(load.hs)/load.serverCPU.Seconds(), ms(load.selfCPU)/float64(load.hs))
	return res, nil
}

// setPhaseMetrics sets the metrics every workload derives from its two
// phases the same way, in reference-host units: each is the median over the
// phase's segments.
func (r *result) setPhaseMetrics(seq, load *phase) {
	r.set("seq_hs_p50_ms", "ms", seq.stat(func(s segStat) float64 { return s.p50 }), len(seq.lats))
	r.set("seq_hs_per_s", "1/s", seq.stat(func(s segStat) float64 { return s.perS }), seq.hs)
	r.set("load_hs_p50_ms", "ms", load.stat(func(s segStat) float64 { return s.p50 }), len(load.lats))
	r.set("cpu_ms_per_hs", "ms", load.stat(func(s segStat) float64 { return s.cpuPerHS }), load.hs)

	rawSeq, _ := p50p99(durationsMs(seq.lats))
	rawLoad, _ := p50p99(durationsMs(load.lats))
	r.infof("times are in reference-host units, the median of %d segments per phase: host index %.2f-%.2f in seq, %.2f-%.2f in load (reference pair %v at index 1)",
		len(seq.segs), seq.indexLo, seq.indexHi, load.indexLo, load.indexHi, refNominal)
	r.infof("as measured, whole phase: seq p50 %.4f ms, load p50 %.4f ms", rawSeq, rawLoad)
	// The tails are printed, not declared: between runs of the same code
	// they spread by up to 0.26 of their median on this host, more than the
	// largest bound a metric may have.
	r.infof("p99 in reference-host units (not declared metrics): seq %.4f ms, load %.4f ms",
		seq.stat(func(s segStat) float64 { return s.p99 }), load.stat(func(s segStat) float64 { return s.p99 }))
}

// declaration is the part of BENCHMARK.json the command reads back: the
// default run length and, for the A/A mode, the bounds.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// printResult writes the human-readable table of one run.
func printResult(w io.Writer, name string, seed int64, res *result) {
	fmt.Fprintf(w, "== %s (seed %d): %d attempted, %d failed\n", name, seed, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		if strings.Contains(n, "_p99_") && tailPercentile(m.n) < 0.99 {
			note = fmt.Sprintf("  (fewer than ten samples beyond p99; p%g is the highest with ten)", 100*tailPercentile(m.n))
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d%s\n", n, m.Value, m.Unit, m.n, note)
	}
	for _, line := range res.info {
		fmt.Fprintf(w, "  # %s\n", line)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// normalizeTraceArg lets -trace be given bare, as the README shows it, or
// with a value, as the driver passes it ("--trace 0"): the flag package
// would stop parsing at the detached value of a boolean flag.
func normalizeTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) &&
			(args[i+1] == "0" || args[i+1] == "1") {
			out[len(out)-1] = "-trace=" + args[i+1]
			i++
		}
	}
	return out
}

func main() {
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(campaignSetupProbe())
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	cancel()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pqperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the Poisson schedule, the kernel input sets and CampaignOptions.Seed")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "run the traced per-layer stages instead of the end-to-end measurement")
	jsonPath := fs.String("json", "", "also write the machine-readable result to this file")
	repeat := fs.Int("repeat", 0, "A/A mode: run this many end-to-end sets and compare the spreads with the bounds")
	updateGolden := fs.Bool("update-golden", false, "rewrite bench/golden from the current campaign rows and exit")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "pqperf: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	e, err := newEnv(ctx, "")
	if err != nil {
		fmt.Fprintln(stderr, "pqperf:", err)
		return 1
	}
	defer e.ref.close()
	if *seconds <= 0 {
		*seconds = float64(e.decl.RunSeconds)
	}
	fmt.Fprintf(stdout, "pqperf: %d CPUs, server child %s (built in %.2f s), real TCP over loopback, %.0f measured seconds per run\n",
		e.nproc, e.serverBin, e.buildS, *seconds)

	if *updateGolden {
		if err := writeGolden(e); err != nil {
			fmt.Fprintln(stderr, "pqperf:", err)
			return 1
		}
		return 0
	}
	if *repeat > 0 {
		return runAA(ctx, e, selected, *seed, *seconds, *repeat, stdout, stderr)
	}

	results := map[string]*result{}
	failed := false
	for _, w := range selected {
		var res *result
		if *trace {
			res, err = runTraced(ctx, e, w, *seed, *seconds)
		} else {
			res, err = runEndToEnd(ctx, e, w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pqperf: %s: %v\n", w.name, err)
			return 1
		}
		res.finish()
		printResult(stdout, w.name, *seed, res)
		results[w.name] = res
		failed = failed || !res.Correct
	}
	var last any = results
	if len(selected) == 1 {
		last = results[selected[0].name]
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "pqperf:", err)
		return 1
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "pqperf:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if failed {
		fmt.Fprintln(stderr, "pqperf: a correctness check failed")
		return 1
	}
	return 0
}
