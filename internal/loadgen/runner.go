// Package loadgen drives the real TLS 1.3 stack over TCP sockets in a
// closed loop, the way the paper measures: each client runs handshakes back
// to back, and each handshake is timed from the ClientHello hitting the
// socket to the Finished flight being written. With C clients against a
// saturated server, latency is about C ÷ throughput.
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

// Options configure one closed-loop run against a live server.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// Config is the client handshake template (KEMName, SigName,
	// ServerName, Roots). It is shallow-copied per connection, so one value
	// serves every client.
	Config *tls13.Config
	// Handshakes is the number of measured handshakes (required). A further
	// tenth run first as warmup: they warm code paths, allocators and the
	// server's ticket store but do not enter the histogram.
	Handshakes int
	// Conns is the number of concurrent clients (0 = 1).
	Conns int
	// HandshakeTimeout bounds each dial plus handshake (0 = 10s).
	HandshakeTimeout time.Duration
	// Resume first runs one full handshake to obtain a session ticket, then
	// resumes every handshake from it — the steady state of a client
	// population holding warm tickets.
	Resume bool
	// Trace, when non-nil, collects a wall-clock client-side span trace for
	// every successful measured handshake: the tls13 phases plus a
	// flight-wait span around each blocking record read.
	Trace *obs.Collector
}

// Result aggregates one run.
type Result struct {
	// Hist holds measured successful handshake latencies (ClientHello
	// written → Finished sent, the span the modeled tables call Total).
	Hist obs.Histogram
	// Completed counts measured completions (Hist.Count()), Warmup the
	// warmup ones, and Failed the handshakes of either kind that failed.
	Completed, Failed, Warmup uint64
	// Resumed counts measured completions that were PSK-resumed.
	Resumed uint64
	// Errors buckets failures by live.Classify class.
	Errors map[string]uint64
	// Elapsed spans run start to last completion, warmup included.
	Elapsed time.Duration
}

// Rate returns completed handshakes, warmup included, per second of the
// whole run.
func (r *Result) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed+r.Warmup) / r.Elapsed.Seconds()
}

// Run executes the handshakes against the server from opts.Conns clients,
// each taking the next handshake as soon as its last one ends. It returns
// an error only for setup failures (bad options, resumption priming);
// individual handshake failures are counted in the Result.
func Run(opts Options) (*Result, error) {
	if opts.Handshakes <= 0 {
		return nil, errors.New("loadgen: Options.Handshakes must be positive")
	}
	if opts.Config == nil {
		return nil, errors.New("loadgen: Options.Config is required")
	}
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	var sess *tls13.Session
	if opts.Resume {
		var err error
		sess, err = Prime(opts.Addr, opts.Config, opts.HandshakeTimeout)
		if err != nil {
			return nil, fmt.Errorf("loadgen: resumption priming: %w", err)
		}
	}

	warmup := opts.Handshakes / 10
	total := warmup + opts.Handshakes
	res := &Result{Errors: make(map[string]uint64)}
	var mu sync.Mutex // guards next and res
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= total {
					return
				}
				lat, tracer, err := oneHandshake(&opts, sess, i)
				mu.Lock()
				switch {
				case err != nil:
					res.Failed++
					res.Errors[live.Classify(err)]++
				case i < warmup:
					res.Warmup++
				default:
					res.Completed++
					if sess != nil {
						res.Resumed++
					}
					res.Hist.Record(lat)
					if opts.Trace != nil {
						opts.Trace.Add(tracer)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

// oneHandshake dials and completes handshake i, returning its CH→Fin span.
func oneHandshake(opts *Options, sess *tls13.Session, i int) (time.Duration, *obs.Tracer, error) {
	deadline := time.Now().Add(opts.HandshakeTimeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", opts.Addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	cfg := *opts.Config
	cfg.Session = sess
	var tracer *obs.Tracer
	if opts.Trace != nil {
		tracer = obs.NewTracer(obs.Meta{
			Endpoint: "client",
			KEM:      cfg.KEMName, Sig: cfg.SigName,
			Sample:  i,
			Resumed: sess != nil,
		}, nil)
		cfg.Hooks = tls13.MultiHooks(cfg.Hooks, tracer)
	}
	cli, err := tls13.ClientHandshake(conn, &cfg)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(cli.HelloSent()), tracer, nil
}

// readerPool recycles Prime's buffered readers.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// bufferedConn reads through a pooled bufio.Reader and writes straight
// through to the socket.
type bufferedConn struct {
	r *bufio.Reader
	io.Writer
}

func (b bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// Prime runs one full handshake and returns the session from the server's
// NewSessionTicket flight, ready to resume from. timeout bounds the dial
// plus both flights.
func Prime(addr string, cfg *tls13.Config, timeout time.Duration) (*tls13.Session, error) {
	deadline := time.Now().Add(timeout)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
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
