//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pqtls"
	"pqtls/internal/crypto/sha3"
	"pqtls/internal/harness"
	"pqtls/internal/kem"
	"pqtls/internal/live"
	"pqtls/internal/netsim"
	"pqtls/internal/nettap"
	"pqtls/internal/obs"
	"pqtls/internal/sig"
	"pqtls/internal/tcpsim"
	"pqtls/internal/tls13"
)

const (
	// kernelInputs is the size of every seeded kernel input set. A kernel
	// whose cost depends on its input (Dilithium's rejection loop) is
	// reported as a distribution over the set, not as one draw.
	kernelInputs = 512
	// chainRounds is how often the traced run cycles through its sans-IO,
	// loopback and two-process blocks. The layers of the budget are compared
	// with each other, so they are interleaved: a slow stretch of the host
	// then lands on all of them.
	chainRounds = 8
	// modeledPerRound is the number of harness.RunHandshake calls per round.
	modeledPerRound = 25
	// chainShare and tracedLoadShare are the parts of the measured seconds
	// the interleaved blocks and the two-process load phase get.
	chainShare      = 0.45
	tracedLoadShare = 0.30
	// minResidual is the most negative residual the layer budget tolerates:
	// an outer layer may not cost less than the one it contains by more
	// than measurement noise.
	minResidual = -0.05
)

// sink keeps the compiler from discarding a timed call's result.
var sink byte

// each times fn once per input in [lo, hi), one span per call, and appends
// the durations in microseconds to durs.
func (r *recorder) each(trace int, name string, durs *[]float64, lo, hi int, fn func(i int) error) error {
	for i := lo; i < hi; i++ {
		sp := r.begin(trace, 0, name)
		err := fn(i)
		r.end(sp)
		if err != nil {
			return fmt.Errorf("%s input %d: %w", name, i, err)
		}
		*durs = append(*durs, us(r.spans[sp-1].dur()))
	}
	return nil
}

// batches times passes over all n inputs, one span per pass, and returns the
// median nanoseconds per call: for kernels too short to time one by one.
func (r *recorder) batches(trace int, name string, passes, n int, fn func(i int)) float64 {
	perOp := make([]float64, passes)
	for p := range perOp {
		sp := r.begin(trace, 0, name)
		for i := 0; i < n; i++ {
			fn(i)
		}
		r.end(sp)
		perOp[p] = float64(r.spans[sp-1].dur()) / float64(n)
	}
	return median(perOp)
}

func randomBlocks(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// kemCost and sigCost are mean kernel costs in microseconds.
type kemCost struct{ keygen, encap, decap float64 }
type sigCost struct{ signMean, verify, chainVerify float64 }

type kernelCosts struct {
	kem map[string]kemCost
	sig map[string]sigCost
}

// kemKernel and sigKernel hold one algorithm's seeded input set and the
// durations measured on it so far.
type kemKernel struct {
	name                      string
	kem                       kem.KEM
	pubs, privs, cts, secrets [][]byte
	keygen, encap, decap      []float64
}

type sigKernel struct {
	name                string
	scheme              sig.Scheme
	creds               *harness.Credentials
	msgs, sigs          [][]byte
	sign, verify, chain []float64
}

// pkKernels is the public-key part of stage (a): every kernel a measured
// handshake contains. The input sets are consumed slice by slice between the
// handshake blocks of the traced run, because the layer budget compares the
// kernels with the handshakes that contain them.
type pkKernels struct {
	rng  *rand.Rand
	kems []*kemKernel
	sigs []*sigKernel
}

func newPKKernels(seed int64) (*pkKernels, error) {
	p := &pkKernels{rng: rand.New(rand.NewSource(seed))}
	for _, name := range []string{"kyber768", "x25519"} {
		k, err := kem.ByName(name)
		if err != nil {
			return nil, err
		}
		p.kems = append(p.kems, &kemKernel{
			name: name, kem: k,
			pubs: make([][]byte, kernelInputs), privs: make([][]byte, kernelInputs),
			cts: make([][]byte, kernelInputs), secrets: make([][]byte, kernelInputs),
		})
	}
	for _, name := range []string{"dilithium3", "ed25519"} {
		scheme, err := sig.ByName(name)
		if err != nil {
			return nil, err
		}
		// The key is the one the sans-IO and loopback handshakes sign with;
		// the inputs that vary are the messages, shaped like
		// CertificateVerify content.
		creds, err := harness.CredentialsFor(name, 1)
		if err != nil {
			return nil, err
		}
		msgs := randomBlocks(p.rng, kernelInputs, 32)
		for i, h := range msgs {
			msgs[i] = append(append(bytes.Repeat([]byte{0x20}, 64),
				"TLS 1.3, server CertificateVerify\x00"...), h...)
		}
		p.sigs = append(p.sigs, &sigKernel{
			name: name, scheme: scheme, creds: creds, msgs: msgs, sigs: make([][]byte, kernelInputs),
		})
	}
	return p, nil
}

// slice runs inputs [lo, hi) through every kernel and checks the outputs.
func (p *pkKernels) slice(rec *recorder, lo, hi int) error {
	for t, k := range p.kems {
		trace := 100 + t
		err := rec.each(trace, "kem."+k.name+"_keygen", &k.keygen, lo, hi, func(i int) (err error) {
			k.pubs[i], k.privs[i], err = k.kem.GenerateKey(p.rng)
			return err
		})
		if err != nil {
			return err
		}
		err = rec.each(trace, "kem."+k.name+"_encap", &k.encap, lo, hi, func(i int) (err error) {
			k.cts[i], k.secrets[i], err = k.kem.Encapsulate(p.rng, k.pubs[i])
			return err
		})
		if err != nil {
			return err
		}
		err = rec.each(trace, "kem."+k.name+"_decap", &k.decap, lo, hi, func(i int) error {
			ss, err := k.kem.Decapsulate(k.privs[i], k.cts[i])
			if err == nil && !bytes.Equal(ss, k.secrets[i]) {
				err = fmt.Errorf("shared secrets differ")
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	for t, s := range p.sigs {
		trace := 200 + t
		pub := s.creds.Chain[0].PublicKey
		err := rec.each(trace, "sig."+s.name+"_sign", &s.sign, lo, hi, func(i int) (err error) {
			s.sigs[i], err = s.scheme.Sign(s.creds.Priv, s.msgs[i])
			return err
		})
		if err != nil {
			return err
		}
		err = rec.each(trace, "sig."+s.name+"_verify", &s.verify, lo, hi, func(i int) error {
			if !s.scheme.Verify(pub, s.msgs[i], s.sigs[i]) {
				return fmt.Errorf("signature does not verify")
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = rec.each(trace, "pki.chain_verify_"+s.name, &s.chain, lo, hi, func(int) error {
			_, err := s.creds.Roots.Verify(s.creds.Chain)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// report sets the kernel metrics and returns the means the budget uses.
func (p *pkKernels) report(res *result) *kernelCosts {
	costs := &kernelCosts{kem: map[string]kemCost{}, sig: map[string]sigCost{}}
	for _, k := range p.kems {
		c := kemCost{mean(k.keygen), mean(k.encap), mean(k.decap)}
		costs.kem[k.name] = c
		res.set("kem."+k.name+"_keygen_us", "us", c.keygen, len(k.keygen))
		res.set("kem."+k.name+"_encap_us", "us", c.encap, len(k.encap))
		res.set("kem."+k.name+"_decap_us", "us", c.decap, len(k.decap))
	}
	for _, s := range p.sigs {
		c := sigCost{mean(s.sign), mean(s.verify), mean(s.chain)}
		costs.sig[s.name] = c
		if s.name == "dilithium3" {
			sorted := sortedCopy(s.sign)
			res.set("sig.dilithium3_sign_mean_us", "us", c.signMean, len(s.sign))
			res.set("sig.dilithium3_sign_p50_us", "us", quantile(sorted, 0.5), len(s.sign))
			res.set("sig.dilithium3_sign_p95_us", "us", quantile(sorted, 0.95), len(s.sign))
		} else {
			res.set("sig."+s.name+"_sign_us", "us", c.signMean, len(s.sign))
		}
		res.set("sig."+s.name+"_verify_us", "us", c.verify, len(s.verify))
		res.set("pki.chain_verify_"+s.name+"_us", "us", c.chainVerify, len(s.chain))
	}
	return costs
}

// hashStage is the rest of stage (a): the hash and ticket kernels, too short
// to time one call at a time. It returns the cost of opening a ticket in
// microseconds.
func hashStage(rec *recorder, seed int64, res *result) (ticketOpenUs float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	small := randomBlocks(rng, kernelInputs, 32)
	res.set("sha3.sum256_32b_ns", "ns", rec.batches(1, "sha3.sum256_32b", 32, kernelInputs, func(i int) {
		h := sha3.Sum256(small[i])
		sink ^= h[0]
	}), 32*kernelInputs)
	big := randomBlocks(rng, kernelInputs, 4096)
	res.set("sha3.shake256_4k_ns", "ns", rec.batches(2, "sha3.shake256_4k", 8, kernelInputs, func(i int) {
		sink ^= sha3.ShakeSum256(64, big[i])[0]
	}), 8*kernelInputs)

	var key [16]byte
	rng.Read(key[:])
	store := tls13.NewTicketStore(key)
	psks := randomBlocks(rng, kernelInputs, 32)
	tickets := make([][]byte, kernelInputs)
	var ticketErr error
	seal := rec.batches(3, "tls13.ticket_seal", 8, kernelInputs, func(i int) {
		tk, err := store.Seal(psks[i], "kyber768")
		if err != nil {
			ticketErr = err
		}
		tickets[i] = tk
	})
	open := rec.batches(3, "tls13.ticket_open", 8, kernelInputs, func(i int) {
		psk, _, err := store.Open(tickets[i])
		if err == nil && !bytes.Equal(psk, psks[i]) {
			err = fmt.Errorf("ticket opened to another PSK")
		}
		if err != nil {
			ticketErr = err
		}
	})
	if ticketErr != nil {
		return 0, fmt.Errorf("ticket store: %w", ticketErr)
	}
	res.set("tls13.ticket_seal_open_ns", "ns", seal+open, 8*kernelInputs)
	return open / 1000, nil
}

// simStage times the layers only the modeled campaigns use, and the
// telemetry primitives.
func simStage(rec *recorder, seed int64, res *result) error {
	rng := rand.New(rand.NewSource(seed))
	trace := 1000

	lossy := netsim.LinkConfig{Name: "loss1", Loss: 0.01, RTT: 10 * time.Millisecond, Rate: 100_000_000}
	payload := make([]byte, 64<<10)
	rng.Read(payload)
	var send []float64
	err := rec.each(trace+1, "tcpsim.send_64k_loss1", &send, 0, 256, func(i int) error {
		conn := tcpsim.NewConn(netsim.NewLink(lossy, seed+int64(i)), tcpsim.Options{})
		_, ready := conn.Connect(0)
		if conn.Send(netsim.ServerToClient, ready, payload) <= ready {
			return fmt.Errorf("transfer took no time")
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("tcpsim.send_64k_loss1_us", "us", mean(send), len(send))

	// The frames of one 64 KiB transfer, as the tap would see them, are the
	// input set of the link and tap kernels.
	type tapped struct {
		dir   netsim.Direction
		at    time.Duration
		frame []byte
	}
	var frames []tapped
	capture := netsim.NewLink(pqtls.ScenarioTestbed, seed)
	capture.SetTap(func(dir netsim.Direction, at time.Duration, frame []byte) {
		frames = append(frames, tapped{dir, at, append([]byte(nil), frame...)})
	})
	conn := tcpsim.NewConn(capture, tcpsim.Options{})
	_, ready := conn.Connect(0)
	conn.Send(netsim.ServerToClient, ready, payload)
	if len(frames) < 40 {
		return fmt.Errorf("tap saw only %d frames of a 64 KiB transfer", len(frames))
	}

	link := netsim.NewLink(pqtls.ScenarioHighLoss, seed)
	res.set("netsim.transmit_ns_per_frame", "ns", rec.batches(trace+2, "netsim.transmit", 64, len(frames), func(i int) {
		tx := link.Transmit(frames[i].dir, frames[i].at, frames[i].frame)
		sink ^= byte(tx.ArriveAt)
	}), 64*len(frames))
	// One timestamper per pass: its reassembly state belongs to one
	// connection.
	var tap *nettap.Timestamper
	var decodeErrs int
	res.set("nettap.tap_ns_per_frame", "ns", rec.batches(trace+3, "nettap.tap", 64, len(frames), func(i int) {
		if i == 0 {
			tap = nettap.NewTimestamper()
		}
		tap.Tap(frames[i].dir, frames[i].at, frames[i].frame)
		if i == len(frames)-1 {
			decodeErrs += tap.DecodeErrors()
		}
	}), 64*len(frames))
	if decodeErrs != 0 {
		return fmt.Errorf("tap could not decode %d frames", decodeErrs)
	}

	lats := make([]time.Duration, kernelInputs)
	for i := range lats {
		lats[i] = time.Duration(50+rng.Intn(20000)) * time.Microsecond
	}
	var hist obs.Histogram
	res.set("obs.hist_record_ns", "ns", rec.batches(trace+4, "obs.hist_record", 64, kernelInputs, func(i int) {
		hist.Record(lats[i])
	}), 64*kernelInputs)
	timeline := obs.NewTimeline(time.Second)
	at := time.Duration(0)
	res.set("obs.timeline_record_ns", "ns", rec.batches(trace+5, "obs.timeline_record", 64, kernelInputs, func(i int) {
		at += time.Millisecond
		timeline.RecordComplete(at, lats[i], false, false)
	}), 64*kernelInputs)
	if hist.Count() != 64*kernelInputs {
		return fmt.Errorf("histogram holds %d of %d records", hist.Count(), 64*kernelInputs)
	}
	return nil
}

// sansIO drives both endpoint state machines of one suite in this process,
// with no transport between them.
type sansIO struct {
	cli, srv pqtls.Config
}

func newSansIO(w workload) (*sansIO, *harness.Credentials, error) {
	creds, err := harness.CredentialsFor(w.sig, 1)
	if err != nil {
		return nil, nil, err
	}
	s := &sansIO{
		cli: pqtls.Config{KEMName: w.kem, SigName: w.sig, ServerName: serverName, Roots: creds.Roots},
		srv: pqtls.Config{
			KEMName: w.kem, SigName: w.sig, ServerName: serverName,
			Chain: creds.Chain, PrivateKey: creds.Priv,
			// The shipped server's default flight policy.
			Buffer:  pqtls.BufferImmediate,
			Tickets: tls13.NewTicketStore([16]byte{1}),
		},
	}
	if w.resumed {
		cli, srv, _, _, err := s.handshake(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		flight, _, err := srv.SessionTicket()
		if err != nil {
			return nil, nil, err
		}
		if s.cli.Session, err = cli.ProcessTicket(flight); err != nil {
			return nil, nil, err
		}
	}
	return s, creds, nil
}

func wireSize(records []pqtls.Record) int {
	n := 0
	for _, r := range records {
		n += 5 + len(r.Payload)
	}
	return n
}

// handshake runs one sans-IO handshake with a span around each call into
// tls13, and returns the bytes each side would put on the wire.
func (s *sansIO) handshake(rec *recorder, trace int) (cli *pqtls.Client, srv *pqtls.Server, cliBytes, srvBytes int, err error) {
	root := rec.begin(trace, 0, "sansio.handshake")
	defer rec.end(root)
	cliCfg, srvCfg := s.cli, s.srv
	if cli, err = pqtls.NewClient(&cliCfg); err != nil {
		return
	}
	if srv, err = pqtls.NewServer(&srvCfg); err != nil {
		return
	}
	sp := rec.begin(trace, root, "tls13.client_start")
	hello, err := cli.Start()
	rec.end(sp)
	if err != nil {
		return
	}
	cliBytes = wireSize(hello)
	sp = rec.begin(trace, root, "tls13.server_respond")
	flushes, err := srv.Respond(hello)
	rec.end(sp)
	if err != nil {
		return
	}
	var final []pqtls.Record
	for _, f := range flushes {
		srvBytes += wireSize(f.Records)
		sp = rec.begin(trace, root, "tls13.client_consume")
		out, done, cerr := cli.Consume(f.Records)
		rec.end(sp)
		if cerr != nil {
			err = cerr
			return
		}
		if done {
			final = out
		}
	}
	if final == nil {
		err = fmt.Errorf("server flight ended before the client was done")
		return
	}
	cliBytes += wireSize(final)
	sp = rec.begin(trace, root, "tls13.server_finish")
	err = srv.Finish(final)
	rec.end(sp)
	if err == nil && s.cli.Session == nil && (cli.ServerCert == nil || cli.ServerCert.Subject != serverName) {
		err = fmt.Errorf("server certificate subject is not %q", serverName)
	}
	return
}

// block runs sans-IO handshakes for about d and returns their durations in
// microseconds.
func (s *sansIO) block(rec *recorder, trace *int, d time.Duration) (durs []float64, cliBytes, srvBytes int, err error) {
	for start := time.Now(); time.Since(start) < d; {
		*trace++
		t0 := time.Now()
		_, _, cb, sb, err := s.handshake(rec, *trace)
		if err != nil {
			return nil, 0, 0, err
		}
		durs = append(durs, us(time.Since(t0)))
		cliBytes, srvBytes = cb, sb
	}
	return durs, cliBytes, srvBytes, nil
}

// runTraced is the traced run of one workload: the hash kernels and the
// simulation layers, then in rounds a slice of the public-key kernels (a),
// sans-IO handshakes (b), an in-process live.Serve over loopback (c) and the
// two-process seq loop (d), and last a two-process load phase. Spans are
// recorded around calls into each layer from this directory's files only;
// the processes under test are not instrumented.
func runTraced(ctx context.Context, e *env, w workload, seed int64, seconds float64) (*result, error) {
	res := newResult()
	rec := newRecorder()
	// Per-layer times are as measured. The host index sampled along the run
	// says how to compare them with the end-to-end run's reference-host
	// units.
	var indices []float64
	sampleIndex := func() error {
		idx, err := e.ref.index()
		indices = append(indices, idx)
		return err
	}
	if err := sampleIndex(); err != nil {
		return nil, err
	}
	ticketOpenUs, err := hashStage(rec, seed, res)
	if err != nil {
		return nil, err
	}
	kernels, err := newPKKernels(seed)
	if err != nil {
		return nil, err
	}
	if err := simStage(rec, seed, res); err != nil {
		return nil, err
	}

	// Layer (b) and (c) endpoints in this process.
	sans, creds, err := newSansIO(w)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvCfg := sans.srv
	srvCfg.Tickets = nil // live.Serve installs its own shared store
	inproc, err := live.Serve(ln, live.Options{Config: &srvCfg, IssueTickets: true})
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer inproc.Shutdown(time.Second)
	loopTgt := newTarget(ln.Addr().String(), w.kem, w.sig, creds.Roots)
	if err := loopTgt.prime(w.resumed); err != nil {
		return nil, fmt.Errorf("loopback: first handshake: %w", err)
	}

	// Layer (d): the child server.
	servers, _, err := setUpLive(ctx, e, w, 1)
	if err != nil {
		return nil, err
	}
	defer stopAll(servers)
	srv, tgt := servers[0], servers[0].tgt
	seqPhase(ctx, tgt, share(seconds, warmShare), nil, 0)
	seqPhase(ctx, loopTgt, share(seconds, warmShare/4), nil, 0)

	blockDur := share(seconds, chainShare/(4*chainRounds))
	var tracedUs, plainUs []float64
	var cliFlight, srvFlight int
	var mallocs, allocBytes uint64
	loop, seq := &phase{}, &phase{}
	trace := 10_000
	ctx0, err := procCtxSwitches(srv.pid())
	if err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	const slice = kernelInputs / chainRounds
	var modeledUs []float64
	for round := 0; round < chainRounds && ctx.Err() == nil; round++ {
		if err := kernels.slice(rec, round*slice, (round+1)*slice); err != nil {
			return nil, err
		}
		err := rec.each(1000, "harness.run_handshake", &modeledUs, round*modeledPerRound, (round+1)*modeledPerRound, func(i int) error {
			_, err := harness.RunHandshake(harness.RunOptions{
				KEM: w.kem, Sig: w.sig, Link: pqtls.ScenarioTestbed, Seed: seed + int64(i), Resume: w.resumed,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		durs, _, _, err := sans.block(rec, &trace, blockDur)
		if err != nil {
			return nil, fmt.Errorf("sans-IO: %w", err)
		}
		tracedUs = append(tracedUs, durs...)

		runtime.ReadMemStats(&mem0)
		durs, cliFlight, srvFlight, err = sans.block(nil, &trace, blockDur)
		if err != nil {
			return nil, fmt.Errorf("sans-IO: %w", err)
		}
		runtime.ReadMemStats(&mem1)
		mallocs += mem1.Mallocs - mem0.Mallocs
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		plainUs = append(plainUs, durs...)

		p := seqPhase(ctx, loopTgt, blockDur, rec, trace)
		trace += p.attempted
		loop.merge(p)
		seq.merge(seqPhase(ctx, tgt, blockDur, nil, 0))
	}
	ctx1, err := procCtxSwitches(srv.pid())
	if err != nil {
		return nil, err
	}
	if err := sampleIndex(); err != nil {
		return nil, err
	}
	res.addPhase("loopback", loop)
	res.addPhase("seq", seq)
	res.Attempted += len(tracedUs) + len(plainUs)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if loop.completed() == 0 || seq.completed() == 0 {
		res.check(false, "a traced phase completed no handshake")
		return res, nil
	}

	// Two-process load phase at the workload's rate.
	load, err := loadSegment(ctx, e, w, srv, seed, share(seconds, tracedLoadShare))
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	if err := sampleIndex(); err != nil {
		return nil, err
	}
	res.addPhase("load", load)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if load.completed() == 0 {
		res.check(false, "the load phase completed no handshake")
		return res, nil
	}

	// tls13: span means per handshake, and self time = span − the kernel
	// means the call contains.
	totals := durationByName(rec.spans)
	nTraced := float64(len(tracedUs))
	perHS := func(name string) float64 { return us(totals[name]) / nTraced }
	costs := kernels.report(res)
	k, s := costs.kem[w.kem], costs.sig[w.sig]
	inRespond, inConsume := k.encap+s.signMean, k.decap+s.chainVerify+s.verify
	if w.resumed {
		inRespond, inConsume = k.encap+ticketOpenUs, k.decap
	}
	start, respond := perHS("tls13.client_start"), perHS("tls13.server_respond")
	consume, finish := perHS("tls13.client_consume"), perHS("tls13.server_finish")
	n := len(tracedUs)
	res.set("tls13.client_start_us", "us", start, n)
	res.set("tls13.server_respond_us", "us", respond, n)
	res.set("tls13.client_consume_us", "us", consume, n)
	res.set("tls13.server_finish_us", "us", finish, n)
	res.set("tls13.client_start_self_us", "us", start-k.keygen, n)
	res.set("tls13.server_respond_self_us", "us", respond-inRespond, n)
	res.set("tls13.client_consume_self_us", "us", consume-inConsume, n)
	res.set("tls13.server_finish_self_us", "us", finish, n)
	res.set("tls13.sansio_allocs_per_hs", "count", float64(mallocs)/float64(len(plainUs)), len(plainUs))
	res.set("tls13.sansio_alloc_bytes_per_hs", "B", float64(allocBytes)/float64(len(plainUs)), len(plainUs))
	res.set("tls13.client_flight_bytes", "B", float64(cliFlight), 1)
	res.set("tls13.server_flight_bytes", "B", float64(srvFlight), 1)

	// live: the in-process server over loopback, and the child's counters.
	nLoop := float64(loop.completed())
	loopbackUs := meanUs(loop.lats)
	res.set("live.loopback_hs_us", "us", loopbackUs, loop.completed())
	res.set("live.wait_flight_us", "us", us(totals["live.wait_flight"])/nLoop, loop.completed())
	res.set("live.dial_us", "us", us(totals["live.dial"])/nLoop, loop.completed())
	res.set("live.rss_peak_mb", "MiB", rss, 1)
	res.set("live.ctx_switches_per_hs", "count", float64(ctx1-ctx0)/float64(seq.completed()), seq.completed())
	res.set("live.server_cpu_ms_per_hs", "ms", ms(load.serverCPU)/float64(load.completed()), load.completed())
	res.set("live.client_cpu_ms_per_hs", "ms", ms(load.selfCPU)/float64(load.completed()), load.completed())

	// load: is the load phase a valid measurement?
	achieved := float64(load.onTime) / float64(load.attempted)
	_, lag99 := p50p99(durationsMs(load.lags))
	res.set("load.slo_miss_ratio", "ratio", load.sloMissRatio(w.p99Limit), load.attempted)
	res.set("load.sched_lag_p99_ms", "ms", lag99, load.completed())
	_, loadP99 := p50p99(durationsMs(load.lats))
	res.set("load.hs_p99_ms", "ms", loadP99, load.completed())
	res.set("load.achieved_ratio", "ratio", achieved, load.attempted)
	res.check(achieved >= minAchieved,
		"load phase completed %.3f of the offered arrivals in time, below %.2f", achieved, minAchieved)

	// budget: Σ kernels → sans-IO → loopback → two-process seq, from outside.
	kernelSum := k.keygen + inRespond + inConsume
	sansUs := mean(plainUs)
	seqUs := meanUs(seq.lats)
	res.set("harness.run_handshake_us", "us", mean(modeledUs), len(modeledUs))
	res.set("harness.sim_overhead_ratio", "ratio", (mean(modeledUs)-sansUs)/mean(modeledUs), len(modeledUs))
	res.set("budget.kernels_sum_us", "us", kernelSum, kernelInputs)
	res.set("budget.sansio_hs_us", "us", sansUs, len(plainUs))
	res.set("budget.seq_hs_us", "us", seqUs, seq.completed())
	_, seqP99 := p50p99(durationsMs(seq.lats))
	res.set("live.seq_hs_p99_ms", "ms", seqP99, seq.completed())
	residuals := []struct {
		name         string
		outer, inner float64
		n            int
	}{
		{"budget.sansio_residual_ratio", sansUs, kernelSum, len(plainUs)},
		{"budget.loopback_residual_ratio", loopbackUs, sansUs, loop.completed()},
		{"budget.seq_residual_ratio", seqUs, loopbackUs, seq.completed()},
	}
	for _, r := range residuals {
		ratio := (r.outer - r.inner) / r.outer
		res.set(r.name, "ratio", ratio, r.n)
		res.check(ratio >= minResidual, "%s is %.3f: the layers do not reconcile", r.name, ratio)
	}
	res.set("bench.trace_overhead_ratio", "ratio", mean(tracedUs)/sansUs, len(tracedUs))
	res.set("bench.build_s", "s", e.buildS, 1)
	res.set("bench.host_index", "ratio", mean(indices), len(indices)*e.ref.pairs)

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(e.outDir, "trace_"+w.name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	res.infof("%d spans in %s", len(rec.spans), path)
	self := selfTimes(rec.spans)
	var glue []float64
	for _, sp := range rec.spans {
		if sp.Name == "sansio.handshake" {
			glue = append(glue, us(self[sp.Span]))
		}
	}
	sort.Float64s(glue)
	res.infof("sans-IO handshake self time (span − children) p50 %.2f us: what the benchmark's own glue costs",
		quantile(glue, 0.5))
	return res, nil
}
