package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pqtls/internal/nettap"
)

// TestSamplePcapGolden regenerates `pqbench capture x25519 rsa:2048`
// in-process and compares it byte for byte with the committed
// results/sample.pcap, which another process wrote: every TCP segment, TLS
// record and virtual timestamp, the RSA credential and both endpoints'
// randomness must be functions of the seed. Run with -update to rewrite the
// file after an intended change.
func TestSamplePcapGolden(t *testing.T) {
	t.Parallel()
	var got bytes.Buffer
	if _, err := writeCapture(&got, "x25519", "rsa:2048"); err != nil {
		t.Fatal(err)
	}
	frames, _, err := nettap.ReadPcap(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 8 {
		t.Errorf("capture has only %d frames, want a full handshake", len(frames))
	}
	path := filepath.Join("..", "..", "results", "sample.pcap")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("capture x25519 rsa:2048 (%d B) differs from %s (%d B); rerun with -update if intended",
			got.Len(), path, len(want))
	}
}
