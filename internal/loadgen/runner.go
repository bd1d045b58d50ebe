package loadgen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
}

// Result aggregates one run.
type Result struct {
	// Hist holds post-warmup successful handshake latencies (ClientHello
	// written → Finished sent, the span the modeled tables call Total).
	Hist obs.Histogram
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

// Run executes the schedule against the server: one dispatcher paces the
// arrival offsets from the run's start instant against one concurrency
// limiter. It returns an error only for setup failures (bad options,
// resumption priming); individual handshake failures are counted in the
// Result.
func Run(opts Options) (*Result, error) {
	if opts.Schedule == nil || len(opts.Schedule.Offsets) == 0 {
		return nil, errors.New("loadgen: empty schedule")
	}
	if opts.Config == nil {
		return nil, errors.New("loadgen: Options.Config is required")
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
	var sess *tls13.Session
	if opts.Resume {
		var err error
		sess, err = Prime(opts.Addr, opts.Config, opts.DialTimeout, opts.HandshakeTimeout)
		if err != nil {
			return nil, fmt.Errorf("loadgen: resumption priming: %w", err)
		}
	}

	res := &Result{
		Offered: uint64(len(opts.Schedule.Offsets)),
		Errors:  make(map[string]uint64),
	}
	sem := make(chan struct{}, opts.MaxConcurrent)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res aggregation from handshake goroutines
	start := time.Now()
	for i, off := range opts.Schedule.Offsets {
		// Open loop: fire at the scheduled offset no matter what earlier
		// handshakes are doing; only pool saturation may delay a start.
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		if lag := time.Since(start) - off; lag > res.MaxLag {
			res.MaxLag = lag // dispatcher only; no lock needed
		}
		res.Started++
		wg.Add(1)
		go func(sample int, scheduled time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			lat, tracer, err := oneHandshake(&opts, sess, sample)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.Failed++
				res.Errors[live.Classify(err)]++
				return
			}
			res.Completed++
			if sess != nil {
				res.Resumed++
			}
			if scheduled < opts.Warmup {
				res.Warmup++
				return
			}
			res.Hist.Record(lat)
			if opts.Trace != nil {
				opts.Trace.Add(tracer)
			}
		}(i, off)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
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
