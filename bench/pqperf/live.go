//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqtls"
)

const (
	serverName = "server.example"
	// hsTimeout bounds one handshake; a handshake that runs into it counts
	// as failed.
	hsTimeout = 5 * time.Second
	// minAchieved is the share of the offered load-phase arrivals that must
	// complete inside the phase; below it the backlog is growing and the
	// latencies describe the queue, not the system.
	minAchieved = 0.98
)

// countingConn counts the bytes that cross the client socket.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += n
	return n, err
}

// target is one server the generator handshakes against.
type target struct {
	addr    string
	cfg     pqtls.Config // template; each handshake works on a copy
	resumed bool
	// fullBytes is the wire size of the full handshake that primed the
	// ticket, the yardstick for the resumed flight-size check.
	fullBytes int
}

func newTarget(addr, kemName, sigName string, roots *pqtls.CertPool) *target {
	return &target{addr: addr, cfg: pqtls.Config{
		KEMName: kemName, SigName: sigName, ServerName: serverName, Roots: roots,
	}}
}

// handshake runs one client handshake over a fresh TCP connection and
// returns the time from dial start to the client Finished flight written,
// and the bytes that crossed the socket. With a recorder it also records a
// span around every step, all children of one span per handshake.
func (t *target) handshake(rec *recorder, trace int) (lat time.Duration, wire int, err error) {
	cli, lat, wire, conn, err := t.dialAndHandshake(rec, trace)
	if conn != nil {
		abortiveClose(conn)
	}
	if err != nil {
		return 0, wire, err
	}
	if t.resumed {
		if cli.ServerCert != nil {
			return 0, wire, errors.New("resumed handshake received a Certificate")
		}
	} else if cli.ServerCert == nil || cli.ServerCert.Subject != serverName {
		return 0, wire, fmt.Errorf("server certificate subject is not %q", serverName)
	}
	return lat, wire, nil
}

// abortiveClose closes with a reset instead of a FIN. An orderly close
// leaves the client port in TIME_WAIT for a minute; at a thousand
// connections a second the ports of one run would still be parked when the
// next run dials, and connect would slow down with the history of the host
// and not with the code under test. The Finished flight is already in the
// server's receive queue when the reset follows it.
func abortiveClose(conn net.Conn) {
	if tcp, ok := conn.(*countingConn).Conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	conn.Close()
}

func (t *target) dialAndHandshake(rec *recorder, trace int) (*pqtls.Client, time.Duration, int, net.Conn, error) {
	root := rec.begin(trace, 0, "live.handshake")
	defer rec.end(root)
	start := time.Now()

	sp := rec.begin(trace, root, "live.dial")
	raw, err := net.DialTimeout("tcp", t.addr, hsTimeout)
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	raw.SetDeadline(start.Add(hsTimeout))
	conn := &countingConn{Conn: raw}

	cfg := t.cfg
	cli, err := pqtls.NewClient(&cfg)
	if err != nil {
		return nil, 0, 0, conn, err
	}
	sp = rec.begin(trace, root, "live.start")
	flight, err := cli.Start()
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, conn, err
	}
	sp = rec.begin(trace, root, "live.write_ch")
	err = pqtls.WriteRecords(conn, flight)
	rec.end(sp)
	if err != nil {
		return nil, 0, conn.n, conn, err
	}
	for {
		sp = rec.begin(trace, root, "live.wait_flight")
		record, err := pqtls.ReadRecord(conn)
		rec.end(sp)
		if err != nil {
			return nil, 0, conn.n, conn, err
		}
		sp = rec.begin(trace, root, "live.consume")
		out, done, err := cli.Consume([]pqtls.Record{record})
		rec.end(sp)
		if err != nil {
			return nil, 0, conn.n, conn, err
		}
		if len(out) > 0 {
			sp = rec.begin(trace, root, "live.write_fin")
			err = pqtls.WriteRecords(conn, out)
			rec.end(sp)
			if err != nil {
				return nil, 0, conn.n, conn, err
			}
		}
		if done {
			// Consume reports done only after it verified the server
			// Finished.
			return cli, time.Since(start), conn.n, conn, nil
		}
	}
}

// prime performs one verified full handshake and, for a resumption target,
// keeps the session of the ticket the server sends after it, so that every
// later handshake resumes from that one ticket.
func (t *target) prime(resume bool) error {
	cli, _, wire, conn, err := t.dialAndHandshake(nil, 0)
	if conn != nil {
		defer conn.Close()
	}
	if err != nil {
		return err
	}
	if cli.ServerCert == nil || cli.ServerCert.Subject != serverName {
		return fmt.Errorf("server certificate subject is not %q", serverName)
	}
	if !resume {
		return nil
	}
	record, err := pqtls.ReadRecord(conn)
	if err != nil {
		return fmt.Errorf("reading NewSessionTicket: %w", err)
	}
	sess, err := cli.ProcessTicket([]pqtls.Record{record})
	if err != nil {
		return fmt.Errorf("processing NewSessionTicket: %w", err)
	}
	t.cfg.Session = sess
	t.resumed = true
	t.fullBytes = wire
	// The first handshake of the measured kind must verify too.
	_, _, err = t.handshake(nil, 0)
	return err
}

// phase is what one measured phase of handshakes yielded. Times are kept
// twice: as measured, for the checks a user's experience decides (latency
// limit, backlog), and in reference-host units, for the metrics.
type phase struct {
	attempted, failed int
	lats              []time.Duration // successful handshakes, as measured
	lags              []time.Duration // generator lateness, load phase only
	wire              int64           // bytes of the successful handshakes
	elapsed           time.Duration
	// hs is the number of handshakes the phase completed. It differs from
	// len(lats) only in the campaign workload, where one timing covers the
	// samples of a cell.
	hs int
	// onTime counts handshakes completed before the phase's nominal end plus
	// one latency limit.
	onTime             int
	serverCPU, selfCPU time.Duration
	firstErr           error

	// cells, when positive, says that lats holds passes over that many grid
	// cells, cell after cell, and that the latency of a cell is its median
	// over the passes (campaign workload).
	cells int

	// segs holds, per segment, the statistics the metrics are made of, in
	// reference-host units; a metric is their median over the segments.
	segs             []segStat
	indexLo, indexHi float64
}

// segStat is one segment's contribution to the phase's metrics.
type segStat struct {
	p50, p99 float64 // ms per handshake
	perS     float64 // handshakes per second
	cpuPerHS float64 // CPU ms per handshake, all processes
}

func (p *phase) completed() int { return len(p.lats) }

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// cellMedians folds passes over n cells into one median per cell.
func cellMedians(values []float64, n int) []float64 {
	out := make([]float64, n)
	for c := range out {
		var cell []float64
		for i := c; i < len(values); i += n {
			cell = append(cell, values[i])
		}
		out[c] = median(cell)
	}
	return out
}

// summarise reduces a segment to its statistics in reference-host units,
// given the host index that held while it ran.
func (p *phase) summarise(index float64) {
	norm := durationsMs(p.lats)
	for i := range norm {
		norm[i] /= index
	}
	if p.cells > 0 {
		norm = cellMedians(norm, p.cells)
	}
	var st segStat
	st.p50, st.p99 = p50p99(norm)
	if p.hs > 0 {
		st.perS = float64(p.hs) / (p.elapsed.Seconds() / index)
		st.cpuPerHS = ms(p.serverCPU+p.selfCPU) / index / float64(p.hs)
	}
	p.segs = []segStat{st}
	p.indexLo, p.indexHi = index, index
}

// merge appends another segment of the same phase.
func (p *phase) merge(o *phase) {
	if p.attempted == 0 {
		p.indexLo, p.indexHi = o.indexLo, o.indexHi
	}
	p.attempted += o.attempted
	p.failed += o.failed
	p.lats = append(p.lats, o.lats...)
	p.lags = append(p.lags, o.lags...)
	p.wire += o.wire
	p.elapsed += o.elapsed
	p.hs += o.hs
	p.onTime += o.onTime
	p.serverCPU += o.serverCPU
	p.selfCPU += o.selfCPU
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.segs = append(p.segs, o.segs...)
	p.indexLo, p.indexHi = min(p.indexLo, o.indexLo), max(p.indexHi, o.indexHi)
}

// stat returns the median over the segments of one of their statistics.
func (p *phase) stat(pick func(segStat) float64) float64 {
	values := make([]float64, len(p.segs))
	for i, s := range p.segs {
		values[i] = pick(s)
	}
	return median(values)
}

// measureSegments runs a phase as n segments with a reference sample before
// and after each, and converts every segment's times with the mean of the
// two samples around it. The host's speed changes within a run, so one index
// per run would be too coarse, and the reference cannot run while the
// segment does without both disturbing each other. Reporting the median of
// the segments' statistics also keeps a burst that hits one or two segments
// out of the result.
func measureSegments(ref *reference, n int, run func(i int) (*phase, error)) (*phase, error) {
	total := &phase{}
	before, err := ref.index()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		p, err := run(i)
		if err != nil {
			return nil, err
		}
		after, err := ref.index()
		if err != nil {
			return nil, err
		}
		p.summarise((before + after) / 2)
		total.merge(p)
		before = after
	}
	return total, nil
}

// seqPhase is the closed loop with one connection at a time: the paper's
// sequential-handshake method.
func seqPhase(ctx context.Context, t *target, dur time.Duration, rec *recorder, traceBase int) *phase {
	p := &phase{}
	start := time.Now()
	for time.Since(start) < dur && ctx.Err() == nil {
		p.attempted++
		lat, wire, err := t.handshake(rec, traceBase+p.attempted)
		if err != nil {
			p.fail(err)
			continue
		}
		p.lats = append(p.lats, lat)
		p.wire += int64(wire)
	}
	p.elapsed = time.Since(start)
	p.hs, p.onTime = p.completed(), p.completed()
	return p
}

// poissonSchedule draws the arrival offsets of an open loop at the given
// rate over dur. The same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// loadPhase is the open loop: arrival i is due at sched[i] whatever happened
// to the arrivals before it, at most inflight handshakes run at once, and
// each is timed from when it was due, so the wait a slow handshake imposes
// on the arrivals behind it is part of their latency. An arrival counts as
// on time when it completes within limit of the phase's nominal end.
func loadPhase(ctx context.Context, t *target, sched []time.Duration, dur, limit time.Duration, inflight int) *phase {
	type outcome struct {
		lat, lag, doneAt time.Duration
		wire             int
		err              error
	}
	outcomes := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				o := &outcomes[i]
				if wait := sched[i] - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				if err := ctx.Err(); err != nil {
					o.err = err
					continue
				}
				o.lag = time.Since(start) - sched[i]
				lat, wire, err := t.handshake(nil, 0)
				o.doneAt = time.Since(start)
				o.lat, o.wire, o.err = o.lag+lat, wire, err
			}
		}()
	}
	wg.Wait()

	p := &phase{attempted: len(sched), elapsed: time.Since(start)}
	if p.elapsed < dur {
		p.elapsed = dur
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			p.fail(o.err)
			continue
		}
		p.lats = append(p.lats, o.lat)
		p.lags = append(p.lags, o.lag)
		p.wire += int64(o.wire)
		if o.doneAt <= dur+limit {
			p.onTime++
		}
	}
	p.hs = p.completed()
	return p
}

// p50p99 returns the median and the 99th percentile.
func p50p99(values []float64) (p50, p99 float64) {
	v := sortedCopy(values)
	return quantile(v, 0.5), quantile(v, 0.99)
}

// sloMissRatio is the share of the phase's arrivals that failed or took
// longer than the limit.
func (p *phase) sloMissRatio(limit time.Duration) float64 {
	miss := p.failed
	for _, l := range p.lats {
		if l > limit {
			miss++
		}
	}
	return float64(miss) / float64(p.attempted)
}
