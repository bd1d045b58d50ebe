package drbg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"
)

// The first block of New(seed) is SHA-256(seed ‖ 0⁸), and Derive with no
// parts keys the stream by SHA-256 of the label.
func TestStreamDefinition(t *testing.T) {
	t.Parallel()
	seed := sha256.Sum256([]byte("label"))
	got := make([]byte, 32)
	Derive("label").Read(got)
	want := sha256.Sum256(append(seed[:], make([]byte, 8)...))
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("first block %s, want %s", hex.EncodeToString(got), hex.EncodeToString(want[:]))
	}
}

// A stream read in odd-sized pieces equals the same stream read at once.
func TestReadChunking(t *testing.T) {
	t.Parallel()
	whole := make([]byte, 200)
	New([32]byte{1}).Read(whole)
	d := New([32]byte{1})
	var pieces []byte
	for _, n := range []int{1, 31, 33, 0, 64, 71} {
		p := make([]byte, n)
		d.Read(p)
		pieces = append(pieces, p...)
	}
	if !bytes.Equal(whole, pieces) {
		t.Fatal("chunked reads differ from one read")
	}
}

// Length prefixes keep ("ab", "c") and ("a", "bc") apart.
func TestDeriveFramesParts(t *testing.T) {
	t.Parallel()
	a, b := make([]byte, 32), make([]byte, 32)
	Derive("x", []byte("ab"), []byte("c")).Read(a)
	Derive("x", []byte("a"), []byte("bc")).Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("different part boundaries derived the same stream")
	}
}

func TestScalarRange(t *testing.T) {
	t.Parallel()
	n := big.NewInt(7)
	d := New([32]byte{2})
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		k, err := Scalar(d, n)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() <= 0 || k.Cmp(n) >= 0 {
			t.Fatalf("scalar %v outside [1, 6]", k)
		}
		seen[k.Int64()] = true
	}
	if len(seen) != 6 {
		t.Errorf("200 draws hit %d of the 6 values", len(seen))
	}
}
