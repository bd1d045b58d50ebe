package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pqtls/internal/harness"
	"pqtls/internal/tls13"
)

var update = flag.Bool("update", false, "rewrite the results/ goldens (table3.txt, sample.pcap, the eight phases_* files) from the current code")

// TestTable3Golden regenerates `pqbench whitebox -samples 7` in-process and
// compares it byte for byte with the committed results/table3.txt. Run with
// -update to rewrite the file after an intended change.
func TestTable3Golden(t *testing.T) {
	t.Parallel()
	var got bytes.Buffer
	if err := runWhitebox(&got, harness.SweepConfig{Samples: 7, Buffer: tls13.BufferImmediate}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", "table3.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("whitebox -samples 7 differs from %s (rerun with -update if intended):\n--- got\n%s--- want\n%s",
			path, got.Bytes(), want)
	}
}
