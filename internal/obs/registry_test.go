package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("pqtls_handshakes_total", "Completed handshakes.", "result", "ok").Add(7)
	reg.Counter("pqtls_handshakes_total", "Completed handshakes.", "result", "error").Inc()
	reg.Gauge("pqtls_inflight_connections", "In-flight connections.").Set(3)
	reg.GaugeFunc("pqtls_draining", "Whether the server is draining.", func() int64 { return 1 })
	reg.CounterFunc("pqtls_tickets_issued_total", "", func() uint64 { return 42 })
	h := reg.Histogram("pqtls_handshake_duration_seconds", "Handshake latency.")
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP pqtls_handshakes_total Completed handshakes.\n",
		"# TYPE pqtls_handshakes_total counter\n",
		`pqtls_handshakes_total{result="error"} 1` + "\n",
		`pqtls_handshakes_total{result="ok"} 7` + "\n",
		"# TYPE pqtls_inflight_connections gauge\n",
		"pqtls_inflight_connections 3\n",
		"pqtls_draining 1\n",
		"pqtls_tickets_issued_total 42\n",
		"# TYPE pqtls_handshake_duration_seconds histogram\n",
		`pqtls_handshake_duration_seconds_bucket{le="0.0005"} 0` + "\n",
		`pqtls_handshake_duration_seconds_bucket{le="0.005"} 2` + "\n",
		`pqtls_handshake_duration_seconds_bucket{le="0.05"} 3` + "\n",
		`pqtls_handshake_duration_seconds_bucket{le="10"} 3` + "\n",
		`pqtls_handshake_duration_seconds_bucket{le="+Inf"} 3` + "\n",
		"pqtls_handshake_duration_seconds_sum 0.044\n",
		"pqtls_handshake_duration_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "pqtls_draining") > strings.Index(out, "pqtls_handshakes_total") {
		t.Error("families not sorted by name")
	}
	// No HELP line for the empty-help family.
	if strings.Contains(out, "# HELP pqtls_tickets_issued_total") {
		t.Error("HELP emitted for empty help string")
	}
}

func TestRegistryIdempotentAndLabelOrder(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	a := reg.Counter("m_total", "h", "b", "2", "a", "1")
	b := reg.Counter("m_total", "h", "a", "1", "b", "2")
	if a != b {
		t.Error("same series with reordered labels returned distinct counters")
	}
	a.Inc()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `m_total{a="1",b="2"} 1` + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("labels not rendered sorted: %s", buf.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("m_total", "h")
	defer func() {
		if recover() == nil {
			t.Error("registering m_total as gauge did not panic")
		}
	}()
	reg.Gauge("m_total", "h")
}

func TestRegistryConcurrent(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("c_total", "h").Inc()
				reg.Gauge("g", "h").Add(1)
				reg.Histogram("h_seconds", "h").Observe(time.Millisecond)
				var buf bytes.Buffer
				if err := reg.WriteText(&buf); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "h").Value(); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	hs := reg.Histogram("h_seconds", "h").Snapshot()
	if got := hs.Count(); got != 800 {
		t.Errorf("histogram count = %d, want 800", got)
	}
}

func TestRegistryHandler(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("x_total", "h").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content-type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "x_total 1\n") {
		t.Errorf("body missing series: %s", body)
	}
}

func TestHistogramCumulativeLE(t *testing.T) {
	t.Parallel()
	var h Histogram
	h.Record(100 * time.Nanosecond) // below histBase: edge bucket, represented by min
	h.Record(2 * time.Millisecond)
	h.Record(2 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if got := h.CumulativeLE(time.Microsecond); got != 1 {
		t.Errorf("<=1us = %d, want 1 (sub-base edge bucket)", got)
	}
	if got := h.CumulativeLE(5 * time.Millisecond); got != 3 {
		t.Errorf("<=5ms = %d, want 3", got)
	}
	if got := h.CumulativeLE(time.Second); got != h.Count() {
		t.Errorf("<=1s = %d, want all %d", got, h.Count())
	}
	if got := h.CumulativeLE(0); got != 0 {
		t.Errorf("<=0 = %d, want 0", got)
	}
}

func TestPhaseHooks(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	ph := NewPhaseHooks(reg)
	end := ph.Phase("kem-decap")
	end()
	end() // idempotent: must observe once
	ph.Charge("kem/decaps", "mlkem768")
	ph.Charge("kem/decaps", "mlkem768")
	snap := reg.Histogram(MetricPhaseSeconds, "", "phase", "kem-decap").Snapshot()
	if got := snap.Count(); got != 1 {
		t.Errorf("phase observations = %d, want 1", got)
	}
	if got := reg.Counter(MetricPubkeyOps, "", "op", "kem/decaps", "alg", "mlkem768").Value(); got != 2 {
		t.Errorf("pubkey ops = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `pqtls_pubkey_ops_total{alg="mlkem768",op="kem/decaps"} 2` + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
}

// tornWriter increments a shared datum on every Write call. With lazy
// per-series sampling (the old WriteText layout), two func series reading
// that datum were sampled on either side of a Write and disagreed within
// one exposition; the single snapshot pass must render them identically.
type tornWriter struct {
	buf   bytes.Buffer
	datum *int64
}

func (t *tornWriter) Write(p []byte) (int, error) {
	*t.datum++
	return t.buf.Write(p)
}

func TestRegistryConsistentFuncSnapshot(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	var datum int64
	read := func() int64 { return datum }
	// Family names sort apart so several Writes land between them.
	reg.GaugeFunc("a_first", "h", read)
	reg.GaugeFunc("z_last", "h", read)
	w := &tornWriter{datum: &datum}
	if err := reg.WriteText(w); err != nil {
		t.Fatal(err)
	}
	out := w.buf.String()
	var first, last int64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "a_first ") {
			fmt.Sscanf(line, "a_first %d", &first)
		}
		if strings.HasPrefix(line, "z_last ") {
			fmt.Sscanf(line, "z_last %d", &last)
		}
	}
	if first != last {
		t.Fatalf("torn scrape: a_first %d, z_last %d (func series sampled mid-write)", first, last)
	}
}

// TestRegistryScrapeVsUpdateRace drives concurrent scrapes against counter,
// gauge, histogram, and func-series updates plus lazy registration; run
// under -race this is the regression net for the snapshot-pass locking.
func TestRegistryScrapeVsUpdateRace(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	var shared atomic.Int64
	reg.GaugeFunc("fn_gauge", "h", func() int64 { return shared.Load() })
	reg.CounterFunc("fn_counter_total", "h", func() uint64 { return uint64(shared.Load()) })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				shared.Add(1)
				reg.Counter("upd_total", "h").Inc()
				reg.Gauge("upd_gauge", "h").Add(1)
				reg.Histogram("upd_seconds", "h").Observe(time.Millisecond)
				reg.Counter("lazy_total", "h", "worker", fmt.Sprint(i), "j", fmt.Sprint(j%7)).Inc()
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
