package dist

import (
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
)

// tcpPair returns two ends of a real loopback TCP connection (net.Pipe has
// no buffering, which would deadlock single-goroutine framing tests).
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	cli, srv := tcpPair(t)
	var stats Stats
	a, b := newProtoConn(cli, &stats), newProtoConn(srv, &stats)
	payload := []byte("hello frames")
	if err := a.send(FrameProgress, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := b.recv()
	if err != nil || typ != FrameProgress || string(got) != string(payload) {
		t.Fatalf("recv = %v, %q, %v", typ, got, err)
	}
	if stats.FramesSent.Load() != 1 || stats.FramesRecv.Load() != 1 {
		t.Fatalf("stats: %d sent, %d recv", stats.FramesSent.Load(), stats.FramesRecv.Load())
	}
	if stats.BytesSent.Load() != uint64(5+len(payload)) || stats.BytesRecv.Load() != uint64(5+len(payload)) {
		t.Fatalf("byte stats: %d sent, %d recv", stats.BytesSent.Load(), stats.BytesRecv.Load())
	}
}

// TestFrameOversized pins MaxFrame enforcement on both sides: send refuses
// to emit an overlong frame, and recv rejects a hostile length header
// before allocating the claimed buffer.
func TestFrameOversized(t *testing.T) {
	cli, srv := tcpPair(t)
	var stats Stats
	a, b := newProtoConn(cli, &stats), newProtoConn(srv, &stats)
	if err := a.send(FrameResult, make([]byte, MaxFrame)); err == nil {
		t.Fatal("send accepted a frame beyond MaxFrame")
	}
	// A raw header claiming MaxFrame+1 body bytes must be rejected without
	// the receiver ever trying to read (or allocate) them.
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := cli.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.recv(); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized header error = %v", err)
	}
}

// TestFrameTruncated pins the mid-frame EOF behavior: a header promising
// more bytes than the peer delivers is an explicit truncation error, not a
// hang or a silent short read.
func TestFrameTruncated(t *testing.T) {
	cli, srv := tcpPair(t)
	b := newProtoConn(srv, &Stats{})
	hdr := binary.BigEndian.AppendUint32(nil, 100)
	hdr = append(hdr, byte(FrameResult))
	hdr = append(hdr, []byte("only ten b")...)
	if _, err := cli.Write(hdr); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, _, err := b.recv(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated frame error = %v", err)
	}
	// A zero-length body is equally malformed.
	cli2, srv2 := tcpPair(t)
	b2 := newProtoConn(srv2, &Stats{})
	if _, err := cli2.Write(binary.BigEndian.AppendUint32(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.recv(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestHelloVersioning pins the handshake checks: wrong magic and wrong
// version produce distinct, named errors; a matching hello yields the name.
func TestHelloVersioning(t *testing.T) {
	name, err := decodeHello(encodeHello("w1"))
	if err != nil || name != "w1" {
		t.Fatalf("decodeHello = %q, %v", name, err)
	}
	bad := encodeHello("w1")
	binary.BigEndian.PutUint16(bad[4:], Version+1)
	if _, err := decodeHello(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch error = %v", err)
	}
	bad = encodeHello("w1")
	binary.BigEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := decodeHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("magic mismatch error = %v", err)
	}
	if _, err := decodeHello([]byte{1, 2}); err == nil {
		t.Fatal("truncated hello accepted")
	}

	id, err := decodeWelcome(encodeWelcome(7))
	if err != nil || id != 7 {
		t.Fatalf("decodeWelcome = %d, %v", id, err)
	}
	badW := encodeWelcome(7)
	binary.BigEndian.PutUint16(badW[4:], Version+9)
	if _, err := decodeWelcome(badW); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("welcome version mismatch error = %v", err)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	sched := loadgen.NewSchedule(3, loadgen.DistExponential, 100, time.Second)
	parts, err := sched.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	job := JobSpec{
		KEM: "kyber768", Sig: "dilithium3", Addr: "127.0.0.1:4433",
		Simulate: true, Resume: true,
		Warmup: 50 * time.Millisecond, MaxConcurrent: 64,
		DialTimeout: time.Second, HandshakeTimeout: 2 * time.Second,
		StartDelay:     100 * time.Millisecond,
		WindowInterval: 250 * time.Millisecond,
	}
	payload := encodeAssign(1, 2, job, parts[1])
	shard, stride, gotJob, part, err := decodeAssign(payload)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 1 || stride != 2 {
		t.Fatalf("shard/stride = %d/%d", shard, stride)
	}
	if !reflect.DeepEqual(job, gotJob) {
		t.Fatalf("job round trip: got %+v want %+v", gotJob, job)
	}
	if part.Digest() != parts[1].Digest() {
		t.Fatal("schedule part changed across the assign frame")
	}
	// Truncation at every byte is an error, never a partial decode.
	for cut := 0; cut < len(payload); cut++ {
		if _, _, _, _, err := decodeAssign(payload[:cut]); err == nil {
			t.Fatalf("assign truncated to %d bytes decoded", cut)
		}
	}
	// Out-of-range shard coordinates are rejected.
	if _, _, _, _, err := decodeAssign(encodeAssign(2, 2, job, parts[1])); err == nil {
		t.Fatal("shard == stride accepted")
	}
	// A flags byte (offset 8, after shard and stride) with a bit this
	// version does not define is rejected, not ignored.
	unknown := append([]byte(nil), payload...)
	unknown[8] |= 1 << 2
	if _, _, _, _, err := decodeAssign(unknown); err == nil || !strings.Contains(err.Error(), "unknown job flags") {
		t.Fatalf("unknown flag bit error = %v", err)
	}
}

func TestSmallFrameCodecs(t *testing.T) {
	c := counters{Started: 9, Completed: 7, Failed: 2}
	got, err := decodeHeartbeat(encodeHeartbeat(c))
	if err != nil || got != c {
		t.Fatalf("heartbeat = %+v, %v", got, err)
	}
	if _, err := decodeHeartbeat([]byte{1}); err == nil {
		t.Fatal("truncated heartbeat accepted")
	}
	shard, pc, tl, err := decodeProgress(encodeProgress(3, c, nil))
	if err != nil || shard != 3 || pc != c || tl != nil {
		t.Fatalf("progress = %d, %+v, %v, %v", shard, pc, tl, err)
	}
	// With windowed telemetry on, the frame carries a timeline snapshot.
	win := obs.NewTimeline(100 * time.Millisecond)
	win.RecordStart(5 * time.Millisecond)
	win.RecordComplete(35*time.Millisecond, time.Millisecond, false, false)
	withTL := encodeProgress(4, c, win)
	shard, pc, gotTL, err := decodeProgress(withTL)
	if err != nil || shard != 4 || pc != c || gotTL == nil {
		t.Fatalf("progress+timeline = %d, %+v, %v, %v", shard, pc, gotTL, err)
	}
	if gotTL.Digest() != win.Digest() {
		t.Fatal("timeline changed across the progress frame")
	}
	// Truncations inside the timeline and trailing garbage are errors.
	for cut := 0; cut < len(withTL); cut++ {
		if _, _, _, err := decodeProgress(withTL[:cut]); err == nil {
			t.Fatalf("progress truncated to %d bytes decoded", cut)
		}
	}
	if _, _, _, err := decodeProgress(append(append([]byte(nil), withTL...), 0)); err == nil {
		t.Fatal("progress frame with trailing garbage accepted")
	}
	res := &loadgen.Result{Offered: 5, Started: 5, Completed: 5}
	res.Hist.Record(time.Millisecond)
	gotShard, gotRes, err := decodeResult(encodeResult(2, res))
	if err != nil || gotShard != 2 || gotRes.Digest() != res.Digest() {
		t.Fatalf("result frame = %d, %v, %v", gotShard, gotRes, err)
	}
	if _, _, err := decodeResult([]byte{0, 0, 0, 1}); err == nil {
		t.Fatal("result frame with truncated body accepted")
	}
	if reason := decodeAbort(encodeAbort("drain")); reason != "drain" {
		t.Fatalf("abort reason = %q", reason)
	}
}
