package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPhasesGolden regenerates `pqbench phases` for the classical and the PQ
// cell with the default flags and compares all eight committed
// results/phases_* files (a JSONL trace and a CSV aggregate per buffer
// policy) byte for byte. Run with -update to rewrite them after an intended
// change.
func TestPhasesGolden(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, cell := range [][2]string{{"x25519", "ed25519"}, {"kyber768", "dilithium3"}} {
		if err := runPhases([]string{"-ka", cell[0], "-sa", cell[1], "-out", dir}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := filepath.Glob(filepath.Join(dir, "phases_*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("phases wrote %d files, want 8", len(got))
	}
	for _, path := range got {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("..", "..", "results", name)
		if *update {
			if err := os.WriteFile(golden, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("phases output %s (%d B) differs from %s (%d B); rerun with -update if intended",
				name, len(data), golden, len(want))
		}
	}
}
