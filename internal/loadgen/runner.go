package loadgen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqtls/internal/live"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// readerPool recycles per-connection buffered readers; the record layer
// otherwise pays two read syscalls per record. Readers are returned after
// the last read a connection will ever make, so pooling cannot swallow
// bytes another connection needs.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// bufferedConn reads through a pooled bufio.Reader and writes straight
// through to the socket (handshake flights are already single writes).
type bufferedConn struct {
	r *bufio.Reader
	io.Writer
}

func (b bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// Options configure one open-loop load-generation run against a live
// server.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// Config is the client handshake template (KEMName, SigName,
	// ServerName, Roots). It is shallow-copied per connection, so one value
	// serves the whole pool.
	Config *tls13.Config
	// Schedule is the pre-computed arrival plan (required).
	Schedule *Schedule
	// Warmup discards handshakes whose *scheduled* arrival falls before
	// this offset: they run (warming code paths, allocators, and the
	// server's ticket store) but do not enter the histogram.
	Warmup time.Duration
	// MaxConcurrent bounds in-flight handshakes (0 = 128). Open-loop
	// arrivals that find the pool saturated wait for a slot; the induced
	// lag is reported in Result.MaxLag rather than silently absorbed.
	MaxConcurrent int
	// DialTimeout and HandshakeTimeout bound each connection (0 = 5s/10s).
	DialTimeout, HandshakeTimeout time.Duration
	// Resume first runs one full handshake to obtain a session ticket, then
	// resumes every scheduled handshake from it — the steady-state of a
	// client population holding warm tickets.
	Resume bool
	// Trace, when non-nil, collects a wall-clock client-side span trace for
	// every successful post-warmup handshake: the tls13 phase hooks plus a
	// flight-wait span around each blocking record read.
	Trace *obs.Collector
	// Simulate replaces every real dial+handshake with a synthetic latency
	// that is a pure function of (Schedule.Seed, sample index). The
	// dispatch machinery — open-loop pacing, the concurrency limiter,
	// warmup classification, histogram recording — runs unchanged, but the
	// Result becomes fully deterministic: the same schedule produces the
	// same histogram, counters, and digest on any host, whole or split
	// across any number of workers or machines. This is the mode the
	// distributed subsystem's exactness checks run in (Addr, Config, and
	// Resume are ignored).
	Simulate bool
	// Cancel, when non-nil, aborts the run once closed: no further arrivals
	// are dispatched, in-flight handshakes finish, and the Result covers
	// what actually ran (Offered still counts the full plan). This is the
	// graceful-drain path a SIGINT takes.
	Cancel <-chan struct{}
	// Progress, when non-nil, is updated with atomic adds as the run
	// advances, so a reporting goroutine (the distributed worker's progress
	// frames) can observe live counters without touching the Result.
	Progress *Progress
	// WindowInterval, when > 0, enables per-window telemetry: every start,
	// completion, and failure is also recorded into a Timeline at this
	// window width, and the Result carries it. In Simulate mode events are
	// stamped with virtual offsets (scheduled arrival, arrival + synthetic
	// latency), making the timeline — like the rest of the Result — a pure
	// function of the arrival plan: a run split across workers or machines
	// merges to the byte-identical timeline of the unsplit run. Live runs
	// stamp wall-clock offsets from the shared start instant.
	WindowInterval time.Duration
	// Timeline, when non-nil, receives the windowed events instead of a
	// freshly created timeline — the handle a concurrent observer (progress
	// frames, a live status line) snapshots mid-run via Clone. Its interval
	// wins over WindowInterval.
	Timeline *obs.Timeline
}

// Progress mirrors the Result's headline counters as atomics a concurrent
// observer may read mid-run.
type Progress struct {
	Started, Completed, Failed atomic.Uint64
}

// Result aggregates one run.
type Result struct {
	// Hist holds post-warmup successful handshake latencies (ClientHello
	// written → Finished sent, the span the modeled tables call Total).
	Hist Histogram
	// Offered is the number of scheduled arrivals; Started of those ran
	// (always equal — saturated arrivals wait, they are not shed).
	Offered, Started uint64
	// Completed/Failed partition Started; Warmup counts completions that
	// were discarded as warmup.
	Completed, Failed, Warmup uint64
	// Resumed counts completions that were PSK-resumed.
	Resumed uint64
	// Errors buckets failures by live.Classify class.
	Errors map[string]uint64
	// MaxLag is the worst (actual − scheduled) start delay: how far the
	// pool fell behind the open-loop plan.
	MaxLag time.Duration
	// Elapsed spans run start to last completion; Rate is post-warmup
	// completed handshakes per second of post-warmup elapsed time.
	Elapsed time.Duration
	// Timeline holds the run's windowed telemetry when
	// Options.WindowInterval enabled it (nil otherwise). It participates in
	// the canonical encoding and the digest.
	Timeline *obs.Timeline
}

// Rate returns achieved handshakes/second over the measured (post-warmup)
// portion of the run.
func (r *Result) Rate(warmup time.Duration) float64 {
	span := r.Elapsed - warmup
	if span <= 0 || r.Hist.Count() == 0 {
		return 0
	}
	return float64(r.Hist.Count()) / span.Seconds()
}

// Merge folds another run's counters and latency histogram into r. The
// log-bucketed histogram merges exactly (bucket-wise addition), so a run
// split across dispatchers — or across machines — aggregates to the same
// Result a single dispatcher would have produced.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	r.Hist.Merge(&o.Hist)
	r.Offered += o.Offered
	r.Started += o.Started
	r.Completed += o.Completed
	r.Failed += o.Failed
	r.Warmup += o.Warmup
	r.Resumed += o.Resumed
	for class, n := range o.Errors {
		if r.Errors == nil {
			r.Errors = make(map[string]uint64)
		}
		r.Errors[class] += n
	}
	if o.MaxLag > r.MaxLag {
		r.MaxLag = o.MaxLag
	}
	if o.Elapsed > r.Elapsed {
		r.Elapsed = o.Elapsed
	}
	if o.Timeline != nil {
		if r.Timeline == nil {
			r.Timeline = obs.NewTimeline(o.Timeline.Interval())
		}
		if err := r.Timeline.Merge(o.Timeline); err != nil {
			// Mixed-interval timelines cannot be merged meaningfully; drop
			// the aggregate rather than keep a partial one that looks whole.
			r.Timeline = nil
		}
	}
}

// Run executes the schedule against the server. It returns an error only
// for setup failures (bad options, resumption priming); individual
// handshake failures are counted in the Result.
func Run(opts Options) (*Result, error) {
	return RunWorkers(opts, 1)
}

// RunWorkers executes the schedule with its arrival plan split round-robin
// across workers dispatcher goroutines, each pacing its own slice of the
// offsets against one shared clock and one shared concurrency limiter. A
// single dispatcher tops out at roughly one arrival per scheduler wakeup;
// splitting the plan keeps the offered rate honest at saturation. The
// per-worker Results are merged bucket-exactly, so workers only changes
// dispatch parallelism, never the semantics of the run.
func RunWorkers(opts Options, workers int) (*Result, error) {
	if err := normalize(&opts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	if n := len(opts.Schedule.Offsets); workers > n {
		workers = n // fewer arrivals than dispatchers: shrink, don't idle
	}

	var sess *tls13.Session
	if opts.Resume && !opts.Simulate {
		var err error
		sess, err = Prime(opts.Addr, opts.Config, opts.DialTimeout, opts.HandshakeTimeout)
		if err != nil {
			return nil, fmt.Errorf("loadgen: resumption priming: %w", err)
		}
	}

	parts, err := opts.Schedule.Split(workers)
	if err != nil {
		return nil, err
	}
	sem := make(chan struct{}, opts.MaxConcurrent)
	results := make([]*Result, len(parts))
	var wg sync.WaitGroup
	start := time.Now()
	for w, part := range parts {
		wg.Add(1)
		go func(w int, part *Schedule) {
			defer wg.Done()
			// Sample w of part i is sample w + i*len(parts) of the original
			// plan (round-robin split), so trace sample IDs stay unique.
			results[w] = dispatch(&opts, part, sess, start, sem, w, len(parts))
		}(w, part)
	}
	wg.Wait()
	res := results[0]
	for _, o := range results[1:] {
		res.Merge(o)
	}
	// Every dispatcher recorded into the one shared timeline; it joins the
	// Result only here, after the merge, so it is counted exactly once.
	res.Timeline = opts.Timeline
	res.Elapsed = time.Since(start)
	return res, nil
}

// normalize validates the options and fills in defaults. Simulate mode
// needs no Config: nothing is dialed.
func normalize(opts *Options) error {
	if opts.Schedule == nil || len(opts.Schedule.Offsets) == 0 {
		return errors.New("loadgen: empty schedule")
	}
	if opts.Config == nil && !opts.Simulate {
		return errors.New("loadgen: Options.Config is required")
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 128
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	if opts.Timeline == nil && opts.WindowInterval > 0 {
		opts.Timeline = obs.NewTimeline(opts.WindowInterval)
	}
	return nil
}

// RunShard executes one pre-split part of a larger plan: opts.Schedule must
// be shard `worker` of a schedule that was Split(stride) ways. Samples are
// numbered worker + i·stride — exactly as the same shard numbers them
// inside RunWorkers — so a shard farmed out to another process times (and,
// in Simulate mode, reproduces) the identical samples, and the per-shard
// Results merge back into the unsplit run's aggregate. This is the
// distributed worker's entry point.
func RunShard(opts Options, worker, stride int) (*Result, error) {
	if err := normalize(&opts); err != nil {
		return nil, err
	}
	if worker < 0 || stride < 1 || worker >= stride {
		return nil, fmt.Errorf("loadgen: RunShard(%d, %d): worker must be in [0, stride)", worker, stride)
	}
	var sess *tls13.Session
	if opts.Resume && !opts.Simulate {
		var err error
		sess, err = Prime(opts.Addr, opts.Config, opts.DialTimeout, opts.HandshakeTimeout)
		if err != nil {
			return nil, fmt.Errorf("loadgen: resumption priming: %w", err)
		}
	}
	sem := make(chan struct{}, opts.MaxConcurrent)
	start := time.Now()
	res := dispatch(&opts, opts.Schedule, sess, start, sem, worker, stride)
	res.Timeline = opts.Timeline
	res.Elapsed = time.Since(start)
	return res, nil
}

// simLatency is Simulate mode's synthetic handshake duration for one
// sample: a deterministic exponential draw (mean 1 ms, clamped to 20 ms)
// from a SHA-256 counter DRBG over (seed, sample). Only (seed, sample)
// matter — not which worker, process, or host runs the sample — which is
// the whole point: a split run reproduces the unsplit histogram exactly.
func simLatency(seed int64, sample int) time.Duration {
	var block [24]byte
	copy(block[:8], "pqsimlat")
	binary.BigEndian.PutUint64(block[8:], uint64(seed))
	binary.BigEndian.PutUint64(block[16:], uint64(sample))
	sum := sha256.Sum256(block[:])
	u := float64(binary.BigEndian.Uint64(sum[:8])>>11) / (1 << 53)
	lat := time.Duration(-math.Log(1-u) * float64(time.Millisecond))
	if lat > 20*time.Millisecond {
		lat = 20 * time.Millisecond
	}
	if lat < time.Microsecond {
		lat = time.Microsecond
	}
	return lat
}

// dispatch paces one slice of the arrival plan. Offsets are absolute (from
// the shared start instant), so concurrent dispatchers reproduce the exact
// arrival process of the unsplit schedule.
func dispatch(opts *Options, sched *Schedule, sess *tls13.Session, start time.Time, sem chan struct{}, worker, stride int) *Result {
	res := &Result{
		Offered: uint64(len(sched.Offsets)),
		Errors:  make(map[string]uint64),
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res aggregation from handshake goroutines

arrivals:
	for i, off := range sched.Offsets {
		// Open loop: fire at the scheduled offset no matter what earlier
		// handshakes are doing; only pool saturation may delay a start. A
		// close of opts.Cancel stops dispatching new arrivals (a nil Cancel
		// channel never fires, so the selects degrade to the plain path).
		if d := off - time.Since(start); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-opts.Cancel:
				t.Stop()
				break arrivals
			}
		}
		select {
		case sem <- struct{}{}:
		case <-opts.Cancel:
			break arrivals
		}
		if lag := time.Since(start) - off; lag > res.MaxLag {
			res.MaxLag = lag // dispatcher goroutine only; no lock needed
		}
		res.Started++
		if opts.Progress != nil {
			opts.Progress.Started.Add(1)
		}
		if opts.Timeline != nil {
			// Simulate stamps the scheduled offset (virtual time, a pure
			// function of the plan); live runs stamp the wall clock.
			at := off
			if !opts.Simulate {
				at = time.Since(start)
			}
			opts.Timeline.RecordStart(at)
		}
		wg.Add(1)
		go func(sample int, scheduled time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			var lat time.Duration
			var tracer *obs.Tracer
			var err error
			if opts.Simulate {
				// Deterministic synthetic latency; sleeping it keeps the
				// limiter and goroutine interleaving honest without
				// touching the recorded value.
				lat = simLatency(sched.Seed, sample)
				time.Sleep(lat)
			} else {
				lat, tracer, err = oneHandshake(opts, sess, sample)
			}
			// The completion instant mirrors the start stamp: virtual
			// (scheduled + synthetic latency) in Simulate mode, wall clock
			// otherwise. The timeline has its own lock.
			doneAt := scheduled + lat
			if !opts.Simulate {
				doneAt = time.Since(start)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.Failed++
				res.Errors[live.Classify(err)]++
				if opts.Progress != nil {
					opts.Progress.Failed.Add(1)
				}
				if opts.Timeline != nil {
					opts.Timeline.RecordFailure(doneAt, live.Classify(err))
				}
				return
			}
			res.Completed++
			if opts.Progress != nil {
				opts.Progress.Completed.Add(1)
			}
			if sess != nil {
				res.Resumed++
			}
			if opts.Timeline != nil {
				opts.Timeline.RecordComplete(doneAt, lat, sess != nil, scheduled < opts.Warmup)
			}
			if scheduled < opts.Warmup {
				res.Warmup++
				return
			}
			res.Hist.Record(lat)
			if opts.Trace != nil {
				opts.Trace.Add(tracer)
			}
		}(worker+i*stride, off)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// oneHandshake dials and completes a single handshake, timing the span from
// the ClientHello hitting the socket to the Finished flight being written —
// the same CH→Fin span the passive tap measures in the modeled pipeline, so
// the live p50 and the modeled Total are comparable.
func oneHandshake(opts *Options, sess *tls13.Session, sample int) (time.Duration, *obs.Tracer, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	conn, err := d.Dial("tcp", opts.Addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
		readerPool.Put(br)
	}()
	rw := bufferedConn{r: br, Writer: conn}

	cfg := *opts.Config
	cfg.Session = sess
	var tracer *obs.Tracer
	waitPhase := func() func() { return func() {} }
	if opts.Trace != nil {
		tracer = obs.NewTracer(obs.Meta{
			Endpoint: "client",
			KEM:      cfg.KEMName, Sig: cfg.SigName,
			Sample:  sample,
			Resumed: sess != nil,
		}, nil)
		cfg.Hooks = tls13.MultiHooks(cfg.Hooks, tracer)
		// Time spent blocked on the socket between flights is the live
		// counterpart of the modeled flight-wait phase. It is opened at
		// depth 0: no tls13 phase is ever open while the driver reads.
		waitPhase = func() func() { return tracer.Phase(tls13.PhaseFlightWait) }
	}
	cli, err := tls13.NewClient(&cfg)
	if err != nil {
		return 0, nil, err
	}
	// Key-share generation happens before the clock starts, mirroring the
	// modeled Total (the tap times from the ClientHello on the wire).
	flight, err := cli.Start()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := tls13.WriteRecords(rw, flight); err != nil {
		return 0, nil, err
	}
	for {
		endWait := waitPhase()
		rec, err := tls13.ReadRecord(rw)
		endWait()
		if err != nil {
			return 0, nil, err
		}
		out, done, err := cli.Consume([]tls13.Record{rec})
		if err != nil {
			return 0, nil, err
		}
		if len(out) > 0 {
			if err := tls13.WriteRecords(rw, out); err != nil {
				return 0, nil, err
			}
		}
		if done {
			return time.Since(t0), tracer, nil
		}
	}
}

// Prime runs one full handshake and returns the session from the server's
// NewSessionTicket flight, ready to resume from.
func Prime(addr string, cfg *tls13.Config, dialTimeout, hsTimeout time.Duration) (*tls13.Session, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(hsTimeout))
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	// The ticket flight may already sit in the buffer after the handshake
	// flights, so the follow-up read must go through the same reader.
	rw := bufferedConn{r: br, Writer: conn}
	cli, err := tls13.ClientHandshake(rw, cfg)
	if err != nil {
		return nil, err
	}
	rec, err := tls13.ReadRecord(rw)
	if err != nil {
		return nil, fmt.Errorf("reading NewSessionTicket: %w", err)
	}
	return cli.ProcessTicket([]tls13.Record{rec})
}
