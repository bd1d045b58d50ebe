// Package dist is the distributed load-generation subsystem: a coordinator
// that partitions an open-loop arrival plan with loadgen.Schedule.Split and
// farms the shards out to worker processes — on this machine or others —
// over a small versioned binary protocol, then merges the streamed
// per-shard loadgen.Results bucket-exactly with Result.Merge. One process
// on one host ceilings the offered load it can generate; fanning the plan
// across workers is how the client side stays provably off the bottleneck
// path while the server under test saturates.
//
// The robustness layer is the part a real fleet needs: per-worker heartbeat
// timeouts, reassignment of a dead worker's shards to live workers (results
// deduplicated by shard id, so a slow worker racing its replacement cannot
// double-count), bounded connect retry with backoff on the worker side, and
// graceful drain on SIGINT at both ends.
//
// Determinism is the correctness bar: the split preserves absolute offsets
// and global sample numbering, and the Result codec is canonical, so in
// loadgen's Simulate mode a run distributed over N workers reproduces the
// single-process run's digest, counters, and quantiles exactly — the check
// `make dist-smoke` (and dist-coordinator's -verify flag) asserts.
package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
)

// Wire constants. Every connection opens with a Hello/Welcome exchange
// carrying the magic and protocol version; a mismatch on either side is
// answered with an Abort frame naming the problem, never a silent hang.
const (
	// Magic is "PQLG" — the first four payload bytes of Hello and Welcome.
	Magic = uint32(0x50514c47)
	// Version is the protocol version; there is no negotiation, only
	// equality. Bump it when any frame layout (including the loadgen
	// codecs) changes. Version 2: JobSpec gained WindowInterval, Progress
	// frames carry an optional windowed timeline, and the Result codec
	// grew its trailing timeline (resultCodecV2). Version 3: the Assign
	// flags byte lost its amortize bit and unknown bits are rejected.
	Version = uint16(3)
	// MaxFrame bounds one frame's body (type byte + payload). The largest
	// legitimate frame is an Assign carrying a shard's offsets (8 bytes per
	// arrival); 16 MiB is ~2M arrivals per shard. Anything larger is a
	// corrupt or hostile length header and is rejected before allocation.
	MaxFrame = 1 << 24
)

// FrameType tags one protocol frame.
type FrameType uint8

const (
	// FrameHello (worker → coordinator): magic, version, worker name.
	FrameHello FrameType = 1 + iota
	// FrameWelcome (coordinator → worker): magic, version, assigned id.
	FrameWelcome
	// FrameAssign (coordinator → worker): shard id, stride, job spec, and
	// the shard's exact arrival offsets.
	FrameAssign
	// FrameHeartbeat (worker → coordinator): liveness plus the worker's
	// aggregate live counters.
	FrameHeartbeat
	// FrameProgress (worker → coordinator): one running shard's live
	// counters.
	FrameProgress
	// FrameResult (worker → coordinator): shard id plus the canonical
	// encoding of the finished shard's loadgen.Result.
	FrameResult
	// FrameAbort (either direction): human-readable reason; the sender is
	// abandoning the run (version rejection, drain, fatal error).
	FrameAbort
)

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameAssign:
		return "assign"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameProgress:
		return "progress"
	case FrameResult:
		return "result"
	case FrameAbort:
		return "abort"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Stats counts protocol traffic with atomics, so both endpoints can expose
// frames/bytes in their obs registries without locking the I/O path.
type Stats struct {
	FramesSent, FramesRecv atomic.Uint64
	BytesSent, BytesRecv   atomic.Uint64
}

// protoConn frames one TCP connection: 4-byte big-endian body length, then
// the body (1 type byte + payload). Writes are mutex-serialized so result
// goroutines and the heartbeat ticker can share the connection; reads
// belong to a single reader goroutine per endpoint.
type protoConn struct {
	c     net.Conn
	br    *bufio.Reader
	wmu   sync.Mutex
	stats *Stats
}

func newProtoConn(c net.Conn, stats *Stats) *protoConn {
	return &protoConn{c: c, br: bufio.NewReaderSize(c, 1<<16), stats: stats}
}

// send writes one frame. The header and body go out in a single Write so a
// concurrent sender can never interleave a torn frame.
func (p *protoConn) send(t FrameType, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("dist: %s frame body %d exceeds MaxFrame", t, len(payload)+1)
	}
	buf := make([]byte, 0, 5+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(buf, byte(t))
	buf = append(buf, payload...)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if _, err := p.c.Write(buf); err != nil {
		return err
	}
	p.stats.FramesSent.Add(1)
	p.stats.BytesSent.Add(uint64(len(buf)))
	return nil
}

// recv reads one frame, enforcing MaxFrame before allocating and treating a
// mid-frame EOF as the explicit truncation error it is.
func (p *protoConn) recv() (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(p.br, hdr[:]); err != nil {
		return 0, nil, err // clean EOF between frames is the peer closing
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("dist: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("dist: frame body %d exceeds MaxFrame %d", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(p.br, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("dist: truncated frame: got %w after header claiming %d bytes", io.ErrUnexpectedEOF, n)
		}
		return 0, nil, err
	}
	p.stats.FramesRecv.Add(1)
	p.stats.BytesRecv.Add(uint64(4 + n))
	return FrameType(body[0]), body[1:], nil
}

func (p *protoConn) close() error { return p.c.Close() }

// JobSpec is everything a worker needs to run a shard besides the arrival
// offsets themselves: the suite, the target server, the loadgen knobs, and
// the start delay that absorbs assignment skew so all workers begin pacing
// near-simultaneously.
type JobSpec struct {
	// KEM and Sig name the handshake suite. The worker reconstructs the
	// client trust roots locally from the harness's deterministic
	// credential DRBG, so certificates never cross the wire.
	KEM, Sig string
	// Addr is the target server's TCP address (ignored in Simulate mode).
	Addr string
	// Simulate runs loadgen's deterministic synthetic mode — no sockets,
	// exact cross-process reproducibility.
	Simulate bool
	// Resume mirrors loadgen.Options.
	Resume bool
	// Warmup, MaxConcurrent, DialTimeout, HandshakeTimeout mirror
	// loadgen.Options (zero values take loadgen's defaults).
	Warmup                        time.Duration
	MaxConcurrent                 int
	DialTimeout, HandshakeTimeout time.Duration
	// StartDelay is slept between receiving an Assign and pacing the first
	// offset.
	StartDelay time.Duration
	// WindowInterval, when > 0, enables per-shard windowed telemetry
	// (loadgen.Options.WindowInterval): progress frames then carry timeline
	// snapshots and the shard Result ships its timeline for the
	// coordinator's fleet merge.
	WindowInterval time.Duration
}

const (
	jobFlagSimulate = 1 << iota
	jobFlagResume

	// jobFlagsKnown is every bit this version defines; decodeAssign rejects
	// the rest so a skewed or corrupt peer cannot be half-understood.
	jobFlagsKnown = jobFlagSimulate | jobFlagResume
)

// appendString appends a u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// frameReader decodes frame payloads with sticky-error semantics: the first
// short read poisons the reader and every later value returns zero, so
// decode functions check err once at the end.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dist: frame payload truncated")
	}
}

func (r *frameReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *frameReader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *frameReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *frameReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *frameReader) str() string {
	n := int(r.u16())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return ""
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *frameReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b
	r.b = nil
	return v
}

// encodeHello builds a Hello payload.
func encodeHello(name string) []byte {
	b := binary.BigEndian.AppendUint32(nil, Magic)
	b = binary.BigEndian.AppendUint16(b, Version)
	return appendString(b, name)
}

// decodeHello validates magic and version and returns the worker name. The
// error distinguishes a wrong protocol (magic) from a wrong version, since
// the operator fixes them differently.
func decodeHello(payload []byte) (string, error) {
	r := &frameReader{b: payload}
	magic, version := r.u32(), r.u16()
	name := r.str()
	if r.err != nil {
		return "", r.err
	}
	if magic != Magic {
		return "", fmt.Errorf("dist: hello magic %08x, want %08x (not a pqtls loadgen peer)", magic, Magic)
	}
	if version != Version {
		return "", fmt.Errorf("dist: protocol version mismatch: peer speaks %d, this side speaks %d", version, Version)
	}
	return name, nil
}

// encodeWelcome builds a Welcome payload.
func encodeWelcome(workerID uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, Magic)
	b = binary.BigEndian.AppendUint16(b, Version)
	return binary.BigEndian.AppendUint32(b, workerID)
}

// decodeWelcome validates magic and version and returns the assigned id.
func decodeWelcome(payload []byte) (uint32, error) {
	r := &frameReader{b: payload}
	magic, version, id := r.u32(), r.u16(), r.u32()
	if r.err != nil {
		return 0, r.err
	}
	if magic != Magic {
		return 0, fmt.Errorf("dist: welcome magic %08x, want %08x", magic, Magic)
	}
	if version != Version {
		return 0, fmt.Errorf("dist: protocol version mismatch: coordinator speaks %d, this worker speaks %d", version, Version)
	}
	return id, nil
}

// encodeAssign builds an Assign payload: shard coordinates, job spec, and
// the shard's schedule in its canonical encoding.
func encodeAssign(shard, stride int, job JobSpec, part *loadgen.Schedule) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(shard))
	b = binary.BigEndian.AppendUint32(b, uint32(stride))
	var flags byte
	if job.Simulate {
		flags |= jobFlagSimulate
	}
	if job.Resume {
		flags |= jobFlagResume
	}
	b = append(b, flags)
	b = appendString(b, job.KEM)
	b = appendString(b, job.Sig)
	b = appendString(b, job.Addr)
	b = binary.BigEndian.AppendUint64(b, uint64(job.Warmup))
	b = binary.BigEndian.AppendUint32(b, uint32(job.MaxConcurrent))
	b = binary.BigEndian.AppendUint64(b, uint64(job.DialTimeout))
	b = binary.BigEndian.AppendUint64(b, uint64(job.HandshakeTimeout))
	b = binary.BigEndian.AppendUint64(b, uint64(job.StartDelay))
	b = binary.BigEndian.AppendUint64(b, uint64(job.WindowInterval))
	return part.AppendBinary(b)
}

// decodeAssign unpacks an Assign payload.
func decodeAssign(payload []byte) (shard, stride int, job JobSpec, part *loadgen.Schedule, err error) {
	r := &frameReader{b: payload}
	shard = int(r.u32())
	stride = int(r.u32())
	flags := r.u8()
	job.Simulate = flags&jobFlagSimulate != 0
	job.Resume = flags&jobFlagResume != 0
	job.KEM = r.str()
	job.Sig = r.str()
	job.Addr = r.str()
	job.Warmup = time.Duration(r.u64())
	job.MaxConcurrent = int(r.u32())
	job.DialTimeout = time.Duration(r.u64())
	job.HandshakeTimeout = time.Duration(r.u64())
	job.StartDelay = time.Duration(r.u64())
	job.WindowInterval = time.Duration(r.u64())
	sched := r.rest()
	if r.err != nil {
		return 0, 0, JobSpec{}, nil, r.err
	}
	if stride < 1 || shard < 0 || shard >= stride {
		return 0, 0, JobSpec{}, nil, fmt.Errorf("dist: assign shard %d of stride %d out of range", shard, stride)
	}
	if unknown := flags &^ jobFlagsKnown; unknown != 0 {
		return 0, 0, JobSpec{}, nil, fmt.Errorf("dist: assign carries unknown job flags %#02x", unknown)
	}
	part = &loadgen.Schedule{}
	if err := part.UnmarshalBinary(sched); err != nil {
		return 0, 0, JobSpec{}, nil, err
	}
	return shard, stride, job, part, nil
}

// counters is the (started, completed, failed) triple heartbeat and
// progress frames carry.
type counters struct {
	Started, Completed, Failed uint64
}

func encodeCounters(b []byte, c counters) []byte {
	b = binary.BigEndian.AppendUint64(b, c.Started)
	b = binary.BigEndian.AppendUint64(b, c.Completed)
	return binary.BigEndian.AppendUint64(b, c.Failed)
}

func (r *frameReader) counters() counters {
	return counters{Started: r.u64(), Completed: r.u64(), Failed: r.u64()}
}

// encodeHeartbeat carries the worker's aggregate live counters.
func encodeHeartbeat(c counters) []byte { return encodeCounters(nil, c) }

func decodeHeartbeat(payload []byte) (counters, error) {
	r := &frameReader{b: payload}
	c := r.counters()
	return c, r.err
}

// encodeProgress carries one running shard's live counters plus, when the
// job enabled windowed telemetry, a snapshot of the shard's timeline so the
// coordinator can serve fleet-wide rollups mid-run.
func encodeProgress(shard int, c counters, tl *obs.Timeline) []byte {
	b := encodeCounters(binary.BigEndian.AppendUint32(nil, uint32(shard)), c)
	if tl != nil {
		b = append(b, 1)
		return tl.AppendBinary(b)
	}
	return append(b, 0)
}

func decodeProgress(payload []byte) (int, counters, *obs.Timeline, error) {
	r := &frameReader{b: payload}
	shard := int(r.u32())
	c := r.counters()
	flag := r.u8()
	body := r.rest()
	if r.err != nil {
		return 0, counters{}, nil, r.err
	}
	switch flag {
	case 0:
		if len(body) != 0 {
			return 0, counters{}, nil, fmt.Errorf("dist: progress frame has %d trailing bytes", len(body))
		}
		return shard, c, nil, nil
	case 1:
		tl := &obs.Timeline{}
		n, err := tl.UnmarshalBinary(body)
		if err != nil {
			return 0, counters{}, nil, err
		}
		if n != len(body) {
			return 0, counters{}, nil, fmt.Errorf("dist: progress frame has %d trailing bytes", len(body)-n)
		}
		return shard, c, tl, nil
	default:
		return 0, counters{}, nil, fmt.Errorf("dist: progress timeline flag %d invalid", flag)
	}
}

// encodeResult carries a finished shard's canonical Result.
func encodeResult(shard int, res *loadgen.Result) []byte {
	return res.AppendBinary(binary.BigEndian.AppendUint32(nil, uint32(shard)))
}

func decodeResult(payload []byte) (int, *loadgen.Result, error) {
	r := &frameReader{b: payload}
	shard := int(r.u32())
	body := r.rest()
	if r.err != nil {
		return 0, nil, r.err
	}
	res := &loadgen.Result{}
	if err := res.UnmarshalBinary(body); err != nil {
		return 0, nil, err
	}
	return shard, res, nil
}

// encodeAbort carries the reason the sender is abandoning the run.
func encodeAbort(reason string) []byte { return appendString(nil, reason) }

func decodeAbort(payload []byte) string {
	r := &frameReader{b: payload}
	reason := r.str()
	if r.err != nil {
		return "(unparseable abort reason)"
	}
	return reason
}
