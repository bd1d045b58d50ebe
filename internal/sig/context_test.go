package sig

import (
	"bytes"
	"testing"
)

// TestContextsMatchScheme pins NewSigner against the one-shot Scheme path
// for a precomputed scheme (dilithium3), a fallback scheme
// (falcon512, variable-length signatures), and a composite hybrid.
func TestContextsMatchScheme(t *testing.T) {
	for _, name := range []string{"dilithium3", "falcon512", "p384_dilithium3"} {
		s := MustByName(name)
		pub, priv, err := s.GenerateKey(newDetReader("ctx-" + name))
		if err != nil {
			t.Fatal(err)
		}
		signer := NewSigner(s, priv)
		for trial := 0; trial < 4; trial++ {
			msg := []byte{byte(trial), 0x5A, byte(trial * 7)}
			want, err := s.Sign(priv, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := signer.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic schemes must match exactly; all must cross-verify.
			if name != "falcon512" && !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: Signer.Sign differs from Scheme.Sign", name, trial)
			}
			if !s.Verify(pub, msg, got) {
				t.Fatalf("%s trial %d: context signature rejected", name, trial)
			}
		}
	}
}
