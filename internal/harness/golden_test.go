package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRenderTable2Golden pins the human-readable table rendering (column
// set, alignment, number formatting) against a checked-in golden file.
func TestRenderTable2Golden(t *testing.T) {
	t.Parallel()
	results := []*CampaignResult{
		{KEM: "x25519", Sig: "rsa:2048", PartAMedian: 120200 * time.Nanosecond,
			PartBMedian: 1280300 * time.Nanosecond, Handshakes60s: 21346,
			ClientBytes: 706, ServerBytes: 1559},
		{KEM: "kyber512", Sig: "rsa:2048", PartAMedian: 210700 * time.Nanosecond,
			PartBMedian: 971500 * time.Nanosecond, Handshakes60s: 26511,
			ClientBytes: 1474, ServerBytes: 7843},
		{KEM: "p384_kyber768", Sig: "rsa:2048", PartAMedian: 1536000 * time.Nanosecond,
			PartBMedian: 2048000 * time.Nanosecond, Handshakes60s: 9000,
			ClientBytes: 1700, ServerBytes: 8000},
	}
	var kemBuf bytes.Buffer
	if err := RenderTable2(&kemBuf, results, true); err != nil {
		t.Fatal(err)
	}
	var sigBuf bytes.Buffer
	if err := RenderTable2(&sigBuf, results, false); err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte{}, kemBuf.Bytes()...), sigBuf.Bytes()...)

	golden := filepath.Join("testdata", "table2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("table rendering changed; run with -update if intended.\n--- got\n%s--- want\n%s", got, want)
	}
}
