package obs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenTimeline is the fixture the byte-pin, roundtrip, and artifact tests
// share: three windows, a warmup completion, a resumption, and two error
// classes, so every codec branch is exercised.
func goldenTimeline() *Timeline {
	tl := NewTimeline(100 * time.Millisecond)
	tl.RecordStart(5 * time.Millisecond)
	tl.RecordStart(30 * time.Millisecond)
	tl.RecordStart(150 * time.Millisecond)
	tl.RecordStart(160 * time.Millisecond)
	tl.RecordStart(210 * time.Millisecond)
	tl.RecordComplete(35*time.Millisecond, 800*time.Nanosecond, false, true) // warmup: counted, not histogrammed
	tl.RecordComplete(160*time.Millisecond, time.Millisecond, true, false)
	tl.RecordComplete(170*time.Millisecond, 40*time.Millisecond, false, false)
	tl.RecordFailure(210*time.Millisecond, "dial")
	tl.RecordFailure(215*time.Millisecond, "timeout")
	tl.RecordFailure(230*time.Millisecond, "dial")
	return tl
}

// TestTimelineCodecGolden pins the canonical binary encoding byte for byte.
// If this fails because the layout changed on purpose, that is a timeline
// codec version bump: update timelineCodecV1's consumers (the dist protocol
// version among them) and regenerate the constant.
func TestTimelineCodecGolden(t *testing.T) {
	t.Parallel()
	const goldenHex = "010000000005f5e100000000030000000000000000000000000000000200000000000000010000000000000000000000000000000100000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000020000000000000002000000000000000000000000000000000000000000000001000000000100000000000000020000000002719c4000000000000f42400000000002625a000000000200b00000000000000001010e00000000000000010000000000000002000000000000000100000000000000000000000000000003000000000000000000000000000000000000000200046469616c0000000000000002000774696d656f7574000000000000000101000000000000000000000000000000000000000000000000000000000000000000000000"
	enc := goldenTimeline().AppendBinary(nil)
	if got := hex.EncodeToString(enc); got != goldenHex {
		t.Fatalf("timeline encoding changed:\n got %s", got)
	}
}

func TestTimelineCodecRoundTrip(t *testing.T) {
	t.Parallel()
	tl := goldenTimeline()
	enc := tl.AppendBinary(nil)

	var dec Timeline
	n, err := dec.UnmarshalBinary(enc)
	if err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if dec.Interval() != tl.Interval() {
		t.Fatalf("interval %v, want %v", dec.Interval(), tl.Interval())
	}
	if !reflect.DeepEqual(dec.Windows(), tl.Windows()) {
		t.Fatalf("windows diverge:\n got %+v\nwant %+v", dec.Windows(), tl.Windows())
	}
	if dec.Digest() != tl.Digest() {
		t.Fatalf("digest %s, want %s", dec.Digest(), tl.Digest())
	}

	// Self-delimiting: trailing bytes belong to the caller.
	withTail := append(append([]byte{}, enc...), 0xAA, 0xBB)
	var dec2 Timeline
	n2, err := dec2.UnmarshalBinary(withTail)
	if err != nil || n2 != len(enc) {
		t.Fatalf("embedded decode: consumed %d (err %v), want %d", n2, err, len(enc))
	}

	// JSON roundtrip.
	js, err := json.Marshal(tl)
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var dec3 Timeline
	if err := json.Unmarshal(js, &dec3); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if !reflect.DeepEqual(dec3.Windows(), tl.Windows()) || dec3.Digest() != tl.Digest() {
		t.Fatalf("JSON roundtrip diverges: digest %s, want %s", dec3.Digest(), tl.Digest())
	}
}

// TestTimelineCodecInvalid fuzzes the decoder with truncation at every byte
// boundary and structural corruption; none may decode, none may panic.
func TestTimelineCodecInvalid(t *testing.T) {
	t.Parallel()
	enc := goldenTimeline().AppendBinary(nil)
	for i := 0; i < len(enc); i++ {
		var dec Timeline
		if _, err := dec.UnmarshalBinary(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	bad := append([]byte{}, enc...)
	bad[0] = 99
	var dec Timeline
	if _, err := dec.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version decoded: %v", err)
	}
	// Zero interval is structurally invalid.
	bad = append([]byte{}, enc...)
	for i := 1; i < 9; i++ {
		bad[i] = 0
	}
	if _, err := dec.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("zero interval decoded: %v", err)
	}
	// Break window index ascending order: the second window's index lives
	// right after the first window's full encoding.
	one := NewTimeline(100 * time.Millisecond)
	one.RecordStart(5 * time.Millisecond)
	firstLen := len(one.AppendBinary(nil))
	bad = append([]byte{}, enc...)
	for i := 0; i < 8; i++ {
		bad[firstLen+i] = 0 // index 0 again: not ascending
	}
	if _, err := dec.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("non-ascending windows decoded: %v", err)
	}
}

// TestTimelineMergeDifferential is the exactness bar for fleet rollups: a
// plan's events split round-robin across N synthetic workers, merged in any
// order, reproduce the unsplit timeline byte for byte.
func TestTimelineMergeDifferential(t *testing.T) {
	t.Parallel()
	const interval = 50 * time.Millisecond
	type event struct {
		at, lat time.Duration
		fail    bool
		class   string
		resumed bool
		warmup  bool
	}
	var events []event
	for i := 0; i < 500; i++ {
		e := event{
			at:  time.Duration(i) * 3 * time.Millisecond,
			lat: time.Duration(i%37+1) * 173 * time.Microsecond,
		}
		switch i % 11 {
		case 3:
			e.fail, e.class = true, "dial"
		case 7:
			e.fail, e.class = true, "timeout"
		}
		e.resumed = i%2 == 0
		e.warmup = e.at < 100*time.Millisecond
		events = append(events, e)
	}
	record := func(tl *Timeline, e event) {
		tl.RecordStart(e.at)
		if e.fail {
			tl.RecordFailure(e.at+e.lat, e.class)
		} else {
			tl.RecordComplete(e.at+e.lat, e.lat, e.resumed, e.warmup)
		}
	}
	unsplit := NewTimeline(interval)
	for _, e := range events {
		record(unsplit, e)
	}
	for _, workers := range []int{2, 3, 7} {
		parts := make([]*Timeline, workers)
		for w := range parts {
			parts[w] = NewTimeline(interval)
		}
		for i, e := range events {
			record(parts[i%workers], e)
		}
		// Merge in reverse order too: commutativity is part of the claim.
		merged := NewTimeline(interval)
		for i := len(parts) - 1; i >= 0; i-- {
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := merged.Digest(), unsplit.Digest(); got != want {
			t.Fatalf("%d workers: merged digest %s, unsplit %s", workers, got, want)
		}
		if !bytes.Equal(merged.AppendBinary(nil), unsplit.AppendBinary(nil)) {
			t.Fatalf("%d workers: merged encoding diverges from unsplit", workers)
		}
	}
}

func TestTimelineMergeIntervalMismatch(t *testing.T) {
	t.Parallel()
	a := NewTimeline(time.Second)
	b := NewTimeline(2 * time.Second)
	if err := a.Merge(b); err == nil {
		t.Fatal("interval mismatch merged silently")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if err := a.Merge(a); err != nil {
		t.Fatalf("self merge: %v", err)
	}
}

func TestTimelineTotals(t *testing.T) {
	t.Parallel()
	tl := goldenTimeline()
	tot := tl.Totals()
	if tot.Started != 5 || tot.Completed != 3 || tot.Failed != 3 ||
		tot.Warmup != 1 || tot.Resumed != 1 {
		t.Fatalf("totals %+v", tot)
	}
	if tot.Errors["dial"] != 2 || tot.Errors["timeout"] != 1 {
		t.Fatalf("error totals %v", tot.Errors)
	}
	if tot.Hist.Count() != 2 {
		t.Fatalf("histogram count %d, want 2 (warmup excluded)", tot.Hist.Count())
	}
}

func TestTimelineJSONLRoundTrip(t *testing.T) {
	t.Parallel()
	tl := goldenTimeline()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimelineJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tl.Digest() {
		t.Fatalf("JSONL roundtrip digest %s, want %s", got.Digest(), tl.Digest())
	}
	// A tampered window must fail the header digest check.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	lines[1] = strings.Replace(lines[1], `"started":2`, `"started":3`, 1)
	if _, err := ReadTimelineJSONL(strings.NewReader(strings.Join(lines, "\n"))); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered JSONL accepted: %v", err)
	}
	// A wrong schema tag is rejected before any window parses.
	badHdr := strings.Replace(lines[0], TimelineSchema, "other/v9", 1)
	if _, err := ReadTimelineJSONL(strings.NewReader(badHdr)); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}

func TestTimelineCSV(t *testing.T) {
	t.Parallel()
	tl := goldenTimeline()
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != TimelineCSVHeader {
		t.Fatalf("CSV header %q", lines[0])
	}
	if len(lines) != 1+3 {
		t.Fatalf("%d CSV rows, want 3", len(lines)-1)
	}
	// Window 0: 2 started, 1 completed (warmup) → inflight 1.
	if !strings.HasPrefix(lines[1], "0,0,2,1,0,0,1,1,") {
		t.Fatalf("window 0 row %q", lines[1])
	}
	// Window 2: cumulative 5 started, 3 completed, 3 failed → inflight -1
	// never happens in real runs but the derivation must stay arithmetic:
	// here 5-3-3 = -1.
	if !strings.HasPrefix(lines[3], "2,200,1,0,3,0,0,-1,") {
		t.Fatalf("window 2 row %q", lines[3])
	}
}

// TestTimelineRecordNoAlloc pins the hot recording path at zero
// allocations once a window exists.
func TestTimelineRecordNoAlloc(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	tl.RecordStart(time.Millisecond)
	tl.RecordComplete(2*time.Millisecond, time.Millisecond, true, false)
	avg := testing.AllocsPerRun(1000, func() {
		tl.RecordStart(time.Millisecond)
		tl.RecordComplete(2*time.Millisecond, time.Millisecond, false, false)
	})
	if avg != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", avg)
	}
}

// TestTimelineCloneIndependence: a clone taken mid-run must not observe
// later records.
func TestTimelineCloneIndependence(t *testing.T) {
	t.Parallel()
	tl := NewTimeline(time.Second)
	tl.RecordStart(0)
	snap := tl.Clone()
	tl.RecordStart(0)
	tl.RecordFailure(time.Second, "dial")
	if tot := snap.Totals(); tot.Started != 1 || tot.Failed != 0 {
		t.Fatalf("clone observed later records: %+v", tot)
	}
	if tot := tl.Totals(); tot.Started != 2 || tot.Failed != 1 {
		t.Fatalf("original lost records: %+v", tot)
	}
}
