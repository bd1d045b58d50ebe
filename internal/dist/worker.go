package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// WorkerOptions configure one worker process (or goroutine).
type WorkerOptions struct {
	// Coordinator is the coordinator's TCP address.
	Coordinator string
	// Name identifies this worker in coordinator logs and reports ("" lets
	// the coordinator assign worker-<id>).
	Name string
	// ConnectAttempts bounds the dial retry loop (0 = 5). Backoff doubles
	// from ConnectBackoff (0 = 250ms) between attempts.
	ConnectAttempts int
	ConnectBackoff  time.Duration
	// HeartbeatInterval paces liveness frames (0 = 1s). It must be well
	// under the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// Registry, when non-nil, receives the worker's protocol counters.
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// ErrAborted reports that the coordinator told the worker to stand down.
// Workers treat it as a clean exit: the run ended, by drain or completion,
// and this process has nothing left to do.
var ErrAborted = errors.New("dist: coordinator aborted the session")

// RunWorker connects to the coordinator, executes every shard it is
// assigned, and returns when the coordinator closes the session, aborts,
// or ctx is canceled (graceful drain: in-flight shards stop dispatching
// new arrivals, finish what started, and the connection closes).
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.ConnectAttempts <= 0 {
		opts.ConnectAttempts = 5
	}
	if opts.ConnectBackoff <= 0 {
		opts.ConnectBackoff = 250 * time.Millisecond
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var stats Stats
	if opts.Registry != nil {
		registerProtoStats(opts.Registry, "worker", &stats)
	}

	pc, err := dialCoordinator(ctx, &opts, &stats)
	if err != nil {
		return err
	}
	defer pc.close()

	if err := pc.send(FrameHello, encodeHello(opts.Name)); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	t, payload, err := pc.recv()
	if err != nil {
		return fmt.Errorf("dist: awaiting welcome: %w", err)
	}
	switch t {
	case FrameWelcome:
		id, err := decodeWelcome(payload)
		if err != nil {
			return err
		}
		logf("dist: registered with %s as worker %d", opts.Coordinator, id)
	case FrameAbort:
		// The coordinator's rejection (version mismatch, shutdown) arrives
		// as an Abort naming the reason.
		return fmt.Errorf("dist: coordinator rejected registration: %s", decodeAbort(payload))
	default:
		return fmt.Errorf("dist: expected welcome, got %s", t)
	}

	w := &workerSession{
		pc: pc, logf: logf,
		interval: opts.HeartbeatInterval,
		shards:   make(map[int]*loadgen.Progress),
	}
	w.cancel = make(chan struct{})

	// Heartbeats carry the aggregate live counters so the coordinator's
	// watchdog sees both liveness and forward motion.
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(opts.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-tick.C:
			}
			pc.send(FrameHeartbeat, encodeHeartbeat(w.totals()))
		}
	}()
	defer func() {
		close(hbDone)
		hbWG.Wait()
	}()

	// A canceled context is the SIGINT drain: announce, stop dispatching,
	// let in-flight shards finish, then let the read loop unblock on close.
	drained := make(chan struct{})
	defer close(drained)
	go func() {
		select {
		case <-ctx.Done():
			logf("dist: draining: %v", context.Cause(ctx))
			pc.send(FrameAbort, encodeAbort("worker draining"))
			close(w.cancel)
			w.wg.Wait()
			pc.close()
		case <-drained:
		}
	}()

	for {
		t, payload, err := pc.recv()
		if err != nil {
			w.wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// The coordinator closing the connection after the run is the
			// normal end of a worker's life.
			logf("dist: coordinator closed the session")
			return nil
		}
		switch t {
		case FrameAssign:
			shard, stride, job, part, err := decodeAssign(payload)
			if err != nil {
				pc.send(FrameAbort, encodeAbort(fmt.Sprintf("bad assign: %v", err)))
				w.wg.Wait()
				return fmt.Errorf("dist: bad assign frame: %w", err)
			}
			logf("dist: assigned shard %d/%d (%d arrivals)", shard, stride, len(part.Offsets))
			w.wg.Add(1)
			go w.runShard(shard, stride, job, part)
		case FrameAbort:
			reason := decodeAbort(payload)
			logf("dist: coordinator abort: %s", reason)
			close(w.cancel)
			w.wg.Wait()
			if reason == "coordinator shutting down" || reason == "coordinator draining" {
				return ErrAborted
			}
			return fmt.Errorf("%w: %s", ErrAborted, reason)
		default:
			// Unknown frames are tolerated (forward-compatible within a
			// version); the handshake already pinned the version.
			logf("dist: ignoring unexpected %s frame", t)
		}
	}
}

// workerSession is the mutable state of one registered worker.
type workerSession struct {
	pc       *protoConn
	logf     func(string, ...any)
	interval time.Duration // progress/heartbeat cadence
	cancel   chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	shards map[int]*loadgen.Progress // live counters, one per running shard
}

// totals sums every shard's live counters — the aggregate the heartbeat
// frames carry.
func (w *workerSession) totals() counters {
	w.mu.Lock()
	defer w.mu.Unlock()
	var c counters
	for _, p := range w.shards {
		c.Started += p.Started.Load()
		c.Completed += p.Completed.Load()
		c.Failed += p.Failed.Load()
	}
	return c
}

// runShard executes one assigned shard and streams the Result back.
func (w *workerSession) runShard(shard, stride int, job JobSpec, part *loadgen.Schedule) {
	defer w.wg.Done()
	if job.StartDelay > 0 {
		// Absorb assignment skew so every worker starts pacing its absolute
		// offsets from (approximately) the same instant.
		t := time.NewTimer(job.StartDelay)
		select {
		case <-t.C:
		case <-w.cancel:
			t.Stop()
		}
	}
	prog := &loadgen.Progress{}
	w.mu.Lock()
	w.shards[shard] = prog
	w.mu.Unlock()
	opts := loadgen.Options{
		Addr:             job.Addr,
		Schedule:         part,
		Warmup:           job.Warmup,
		MaxConcurrent:    job.MaxConcurrent,
		DialTimeout:      job.DialTimeout,
		HandshakeTimeout: job.HandshakeTimeout,
		Resume:           job.Resume,
		Simulate:         job.Simulate,
		Cancel:           w.cancel,
		Progress:         prog,
	}
	if job.WindowInterval > 0 {
		opts.WindowInterval = job.WindowInterval
		opts.Timeline = obs.NewTimeline(job.WindowInterval)
	}

	// Stream this shard's live counters (and, when windowed telemetry is on,
	// a timeline snapshot) at the heartbeat cadence so the coordinator can
	// serve fleet rollups mid-run. The sender stops before the Result goes
	// out: the Result's own timeline supersedes every snapshot.
	progStop := make(chan struct{})
	var progWG sync.WaitGroup
	progWG.Add(1)
	go func() {
		defer progWG.Done()
		tick := time.NewTicker(w.interval)
		defer tick.Stop()
		for {
			select {
			case <-progStop:
				return
			case <-w.cancel:
				return
			case <-tick.C:
			}
			var snap *obs.Timeline
			if opts.Timeline != nil {
				snap = opts.Timeline.Clone()
			}
			w.pc.send(FrameProgress, encodeProgress(shard, counters{
				Started:   prog.Started.Load(),
				Completed: prog.Completed.Load(),
				Failed:    prog.Failed.Load(),
			}, snap))
		}
	}()
	stopProgress := func() {
		close(progStop)
		progWG.Wait()
	}
	if !job.Simulate {
		// Reconstruct the client trust roots locally: the harness credential
		// DRBG is deterministic in (sig, depth), so every worker derives the
		// same roots the server was started with — nothing sensitive or
		// bulky crosses the wire.
		creds, err := harness.CredentialsFor(job.Sig, 1)
		if err != nil {
			stopProgress()
			w.fail(shard, fmt.Errorf("credentials for %s: %w", job.Sig, err))
			return
		}
		opts.Config = &tls13.Config{
			KEMName: job.KEM, SigName: job.Sig,
			ServerName: "server.example", Roots: creds.Roots,
		}
	}
	res, err := loadgen.RunShard(opts, shard, stride)
	stopProgress()
	if err != nil {
		w.fail(shard, err)
		return
	}
	if err := w.pc.send(FrameResult, encodeResult(shard, res)); err != nil {
		w.logf("dist: sending shard %d result: %v", shard, err)
		return
	}
	w.logf("dist: shard %d finished: %d completed, %d failed, digest %s",
		shard, res.Completed, res.Failed, res.Digest())
}

// fail reports a shard-fatal setup error. The coordinator drops this worker
// and reassigns the shard.
func (w *workerSession) fail(shard int, err error) {
	w.logf("dist: shard %d failed: %v", shard, err)
	w.pc.send(FrameAbort, encodeAbort(fmt.Sprintf("shard %d: %v", shard, err)))
}

// dialCoordinator connects with bounded retry and exponential backoff: a
// worker routinely starts before its coordinator finishes binding.
func dialCoordinator(ctx context.Context, opts *WorkerOptions, stats *Stats) (*protoConn, error) {
	backoff := opts.ConnectBackoff
	var lastErr error
	for attempt := 1; attempt <= opts.ConnectAttempts; attempt++ {
		d := net.Dialer{Timeout: 5 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", opts.Coordinator)
		if err == nil {
			return newProtoConn(conn, stats), nil
		}
		lastErr = err
		if opts.Logf != nil {
			opts.Logf("dist: connect attempt %d/%d failed: %v", attempt, opts.ConnectAttempts, err)
		}
		if attempt == opts.ConnectAttempts {
			break
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		backoff *= 2
	}
	return nil, fmt.Errorf("dist: connecting to coordinator %s: %w (after %d attempts)",
		opts.Coordinator, lastErr, opts.ConnectAttempts)
}
