package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// stepClock is a deterministic clock advancing 100 µs per reading, making
// the golden JSONL byte-exact.
type stepClock struct {
	t time.Time
}

func (c *stepClock) now() time.Time {
	c.t = c.t.Add(100 * time.Microsecond)
	return c.t
}

func newStepClock() *stepClock {
	return &stepClock{t: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func buildTrace() *Tracer {
	clk := newStepClock()
	tr := NewTracer(Meta{
		Endpoint: "client", KEM: "x25519", Sig: "ed25519",
		Buffer: "default", Sample: 3,
	}, clk.now)
	// NewTracer consumed the first tick for the origin, so the first span
	// starts at offset 100us.
	endPhase := tr.Phase("server-hello") // start 100us
	endNested := tr.Phase("kem-decap")   // 200us, depth 1
	tr.Charge("kem/decaps", "x25519")
	endNested() // 300us
	endPhase()  // 400us
	tr.Add("flight-wait", 700*time.Microsecond, 1500*time.Microsecond)
	return tr
}

// TestGoldenJSONL pins the exported schema byte-for-byte: a change that
// renames a field or reorders keys must show up here.
func TestGoldenJSONL(t *testing.T) {
	t.Parallel()
	var c Collector
	c.Add(buildTrace())
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	golden := strings.Join([]string{
		`{"endpoint":"client","kem":"x25519","sig":"ed25519","buffer":"default","sample":3,"kind":"phase","name":"server-hello","depth":0,"start_us":100,"dur_us":300}`,
		`{"endpoint":"client","kem":"x25519","sig":"ed25519","buffer":"default","sample":3,"kind":"phase","name":"kem-decap","depth":1,"start_us":200,"dur_us":100,"op":"kem/decaps","alg":"x25519"}`,
		`{"endpoint":"client","kem":"x25519","sig":"ed25519","buffer":"default","sample":3,"kind":"phase","name":"flight-wait","depth":0,"start_us":700,"dur_us":800}`,
		``,
	}, "\n")
	if got := buf.String(); got != golden {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 3 {
		t.Errorf("validated %d spans, want 3", n)
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	t.Parallel()
	bad := []string{
		`{"endpoint":"proxy","kem":"x25519","sig":"ed25519","sample":0,"kind":"phase","name":"x","depth":0,"start_us":0,"dur_us":1}`,
		`{"endpoint":"client","kem":"x25519","sig":"ed25519","sample":0,"kind":"blob","name":"x","depth":0,"start_us":0,"dur_us":1}`,
		`{"endpoint":"client","kem":"","sig":"ed25519","sample":0,"kind":"phase","name":"x","depth":0,"start_us":0,"dur_us":1}`,
		`{"endpoint":"client","kem":"x25519","sig":"ed25519","sample":0,"kind":"phase","name":"x","depth":0,"start_us":0,"dur_us":-5}`,
		`{"endpoint":"client","unknown_field":1,"kem":"x25519","sig":"ed25519","sample":0,"kind":"phase","name":"x","depth":0,"start_us":0,"dur_us":1}`,
	}
	for i, line := range bad {
		if _, err := ValidateJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("case %d: invalid line accepted: %s", i, line)
		}
	}
}

// TestTracerOutOfOrderClose pins the Hooks contract: closers may run
// non-LIFO or twice without corrupting the span set.
func TestTracerOutOfOrderClose(t *testing.T) {
	t.Parallel()
	clk := newStepClock()
	tr := NewTracer(Meta{Endpoint: "server", KEM: "k", Sig: "s"}, clk.now)
	endA := tr.Phase("a")
	endB := tr.Phase("b")
	endA()
	endA()
	endB()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// After a closed out of order, a charge must land on b (still open at
	// that point it would have been innermost) — here both are closed, so
	// the charge is dropped rather than misattributed.
	tr.Charge("sig/sign", "s")
	for _, s := range tr.Spans() {
		if s.Op != "" {
			t.Errorf("charge attributed to closed span %q", s.Name)
		}
	}
}

// TestTracerAbandonedSpanOmitted: error paths abandon spans; they must not
// appear in the export with garbage durations.
func TestTracerAbandonedSpanOmitted(t *testing.T) {
	t.Parallel()
	clk := newStepClock()
	tr := NewTracer(Meta{Endpoint: "client", KEM: "k", Sig: "s"}, clk.now)
	tr.Phase("abandoned")
	end := tr.Phase("closed")
	end()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "closed" {
		t.Errorf("spans = %+v, want just the closed one", spans)
	}
}

func TestAggregatePhases(t *testing.T) {
	t.Parallel()
	mk := func(endpoint string, sample int, decap time.Duration) *Tracer {
		clk := newStepClock()
		tr := NewTracer(Meta{Endpoint: endpoint, KEM: "x25519", Sig: "ed25519", Sample: sample}, clk.now)
		tr.Add("kem-decap", 0, decap)
		tr.Add("flight-wait", decap, decap+2*time.Millisecond)
		tr.Add("flight-wait", decap+3*time.Millisecond, decap+4*time.Millisecond)
		return tr
	}
	traces := []*Tracer{
		mk("server", 0, 5*time.Millisecond), // server listed after clients regardless of order
		mk("client", 0, 1*time.Millisecond),
		mk("client", 1, 3*time.Millisecond),
	}
	sts := AggregatePhases(traces)
	if len(sts) != 4 {
		t.Fatalf("got %d stats, want 4 (2 endpoints × 2 phases): %+v", len(sts), sts)
	}
	if sts[0].Endpoint != "client" {
		t.Errorf("client rows must come first, got %+v", sts[0])
	}
	var cliDecap *PhaseStat
	for i := range sts {
		if sts[i].Endpoint == "client" && sts[i].Phase == "kem-decap" {
			cliDecap = &sts[i]
		}
		if sts[i].Phase == "flight-wait" && sts[i].P50 != 3*time.Millisecond {
			t.Errorf("flight-wait spans must sum per trace: p50 %v, want 3ms", sts[i].P50)
		}
	}
	if cliDecap == nil || cliDecap.Samples != 2 {
		t.Fatalf("client kem-decap stat missing or wrong samples: %+v", cliDecap)
	}
	if cliDecap.P50 != 1*time.Millisecond { // nearest-rank ceil(0.5·2)=1st of {1ms, 3ms}
		t.Errorf("p50 %v, want 1ms", cliDecap.P50)
	}
	if cliDecap.Mean != 2*time.Millisecond {
		t.Errorf("mean %v, want 2ms", cliDecap.Mean)
	}
}
