package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Meta identifies one traced handshake endpoint.
type Meta struct {
	Endpoint string // "client" or "server"
	KEM      string
	Sig      string
	Buffer   string // "default" or "immediate" ("" when unknown, e.g. a bare client)
	Sample   int    // sample index within a run
	Resumed  bool   // PSK-resumed handshake
}

// Span is one closed handshake phase of a trace. Start and End are offsets
// from the trace origin (the Tracer's construction time), so spans from
// modeled (virtual-clock) and live (wall-clock) runs read identically.
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
	Depth int // nesting depth; aggregation uses depth 0 only
	// Op and Alg record the public-key operations charged while this span
	// was the innermost open phase (comma-joined when several, e.g. a chain
	// validation verifying two certificates).
	Op  string
	Alg string

	closed bool
}

// Dur returns the span duration.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Tracer records the phase tree of a single handshake endpoint. It satisfies
// the tls13.Hooks interface structurally (Phase/Charge) so it can be
// installed on a Config — alone or stacked via tls13.MultiHooks.
//
// A Tracer is used from one handshake's goroutine only; it is not safe for
// concurrent use. Closing a span is idempotent and tolerates out-of-order
// closes: error paths in the state machines may abandon spans entirely,
// which simply leaves them out of the export (only closed spans are
// emitted, and failed handshakes are not collected anyway).
type Tracer struct {
	meta   Meta
	now    func() time.Time
	origin time.Time
	spans  []*Span
	open   []*Span // open-phase stack, innermost last
}

// NewTracer starts a trace. now supplies the clock — time.Now for live
// runs, a Meter's virtual clock for modeled runs; nil means time.Now. The
// trace origin is the clock reading at construction.
func NewTracer(meta Meta, now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{meta: meta, now: now, origin: now()}
}

// Meta returns the trace identity.
func (t *Tracer) Meta() Meta { return t.meta }

func (t *Tracer) at() time.Duration { return t.now().Sub(t.origin) }

// Phase opens a named handshake phase (tls13.Hooks).
func (t *Tracer) Phase(name string) func() {
	s := &Span{Name: name, Start: t.at(), Depth: len(t.open)}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	return func() {
		if s.closed {
			return
		}
		s.closed = true
		s.End = t.at()
		// Out-of-order close: s may not be the top of the stack — remove it
		// wherever it sits.
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == s {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
	}
}

// Charge annotates the innermost open phase with a public-key operation
// (tls13.Hooks). Charges outside any phase are dropped.
func (t *Tracer) Charge(op, alg string) {
	if len(t.open) == 0 {
		return
	}
	s := t.open[len(t.open)-1]
	if s.Op != "" {
		s.Op += ","
		s.Alg += ","
	}
	s.Op += op
	s.Alg += alg
}

// Add records an externally timed top-level phase span — the harness drive
// loop uses it for flight-wait, which the sans-IO state machines never see.
// Offsets are relative to the trace origin.
func (t *Tracer) Add(name string, start, end time.Duration) {
	t.spans = append(t.spans, &Span{Name: name, Start: start, End: end, closed: true})
}

// Spans returns the closed spans in recording order. Abandoned (never
// closed) spans are omitted.
func (t *Tracer) Spans() []Span {
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.closed {
			out = append(out, *s)
		}
	}
	return out
}

// Collector accumulates finished traces from concurrent handshakes.
type Collector struct {
	mu     sync.Mutex
	traces []*Tracer
}

// Add appends a finished trace. Safe for concurrent use.
func (c *Collector) Add(t *Tracer) {
	if t == nil {
		return
	}
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
}

// Traces returns the collected traces.
func (c *Collector) Traces() []*Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Tracer(nil), c.traces...)
}

// Len returns the number of collected traces.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// spanRecord is the JSONL wire form of one span: one line per span, flat,
// with the trace identity denormalized onto every line so the file needs no
// out-of-band context.
type spanRecord struct {
	Endpoint string `json:"endpoint"`
	KEM      string `json:"kem"`
	Sig      string `json:"sig"`
	Buffer   string `json:"buffer,omitempty"`
	Sample   int    `json:"sample"`
	Resumed  bool   `json:"resumed,omitempty"`
	Kind     string `json:"kind"` // always "phase"
	Name     string `json:"name"`
	Depth    int    `json:"depth"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Op       string `json:"op,omitempty"`
	Alg      string `json:"alg,omitempty"`
}

// WriteJSONL emits every closed span of every collected trace, one JSON
// object per line. Offsets and durations are integral microseconds.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	for _, t := range c.Traces() {
		m := t.Meta()
		for _, s := range t.Spans() {
			rec := spanRecord{
				Endpoint: m.Endpoint,
				KEM:      m.KEM,
				Sig:      m.Sig,
				Buffer:   m.Buffer,
				Sample:   m.Sample,
				Resumed:  m.Resumed,
				Kind:     "phase",
				Name:     s.Name,
				Depth:    s.Depth,
				StartUS:  s.Start.Microseconds(),
				DurUS:    s.Dur().Microseconds(),
				Op:       s.Op,
				Alg:      s.Alg,
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ValidateJSONL checks a span JSONL stream against the schema WriteJSONL
// produces and returns the number of valid span lines. It is the self-check
// `pqbench phases` and the smoke script run over emitted traces.
func ValidateJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		var rec spanRecord
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return n, fmt.Errorf("line %d: %w", n, err)
		}
		if rec.Endpoint != "client" && rec.Endpoint != "server" {
			return n, fmt.Errorf("line %d: endpoint %q not client|server", n, rec.Endpoint)
		}
		if rec.Kind != "phase" {
			return n, fmt.Errorf("line %d: kind %q not phase", n, rec.Kind)
		}
		if rec.Name == "" || rec.KEM == "" || rec.Sig == "" {
			return n, fmt.Errorf("line %d: empty name/kem/sig", n)
		}
		if rec.Depth < 0 || rec.StartUS < 0 || rec.DurUS < 0 {
			return n, fmt.Errorf("line %d: negative depth/start_us/dur_us", n)
		}
	}
	return n, sc.Err()
}
