package sig

import (
	"bytes"
	"testing"
)

// TestContextsMatchScheme pins NewSigner/NewVerifier against the one-shot
// Scheme paths for a precomputed scheme (dilithium3), a fallback scheme
// (falcon512, variable-length signatures), and a composite hybrid.
func TestContextsMatchScheme(t *testing.T) {
	for _, name := range []string{"dilithium3", "falcon512", "p384_dilithium3"} {
		s := MustByName(name)
		pub, priv, err := s.GenerateKey(newDetReader("ctx-" + name))
		if err != nil {
			t.Fatal(err)
		}
		signer := NewSigner(s, priv)
		verifier := NewVerifier(s, pub)
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
			if !verifier.Verify(msg, got) || !s.Verify(pub, msg, got) {
				t.Fatalf("%s trial %d: context signature rejected", name, trial)
			}
			if verifier.Verify(msg, want) != s.Verify(pub, msg, want) {
				t.Fatalf("%s trial %d: verifier disagrees with scheme", name, trial)
			}
			bad := append([]byte(nil), got...)
			bad[len(bad)/2] ^= 1
			if verifier.Verify(msg, bad) {
				t.Fatalf("%s trial %d: Verifier accepts corrupted signature", name, trial)
			}
		}
	}
}

// TestVerifierCache checks memoization and the capacity bound.
func TestVerifierCache(t *testing.T) {
	s := MustByName("dilithium2")
	pub, priv, err := s.GenerateKey(newDetReader("cache"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewVerifierCache(2)
	v1 := c.For(s, pub)
	if v2 := c.For(s, pub); v2 != v1 {
		t.Fatal("cache missed on identical key")
	}
	msg := []byte("cached verify")
	sig, err := s.Sign(priv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Verify(msg, sig) {
		t.Fatal("cached verifier rejects valid signature")
	}
	// Overflow the capacity with distinct keys; the cache must stay bounded
	// and keep working.
	for i := 0; i < 5; i++ {
		pub2, _, err := s.GenerateKey(newDetReader(string(rune('a' + i))))
		if err != nil {
			t.Fatal(err)
		}
		c.For(s, pub2)
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	if n > 2 {
		t.Fatalf("cache grew to %d entries, capacity 2", n)
	}
	if !c.For(s, pub).Verify(msg, sig) {
		t.Fatal("rebuilt verifier rejects valid signature")
	}
}

// TestVerifierCacheChurnStats is the churn regression test: a key
// population far above the cap must keep the cache bounded while the
// hit/miss/eviction counters account exactly for every lookup.
func TestVerifierCacheChurnStats(t *testing.T) {
	s := MustByName("dilithium2")
	const cap = 4
	c := NewVerifierCache(cap)
	pubs := make([][]byte, 12)
	for i := range pubs {
		pub, _, err := s.GenerateKey(newDetReader("churn" + string(rune('A'+i))))
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = pub
	}
	// Three rounds over 12 keys against a 4-entry cache: every round churns
	// the whole population through, so later rounds keep missing.
	lookups := 0
	for round := 0; round < 3; round++ {
		for _, pub := range pubs {
			if c.For(s, pub) == nil {
				t.Fatal("nil verifier")
			}
			lookups++
		}
	}
	st := c.Stats()
	if st.Entries > cap {
		t.Fatalf("cache grew to %d entries, capacity %d", st.Entries, cap)
	}
	if st.Hits+st.Misses != uint64(lookups) {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups)
	}
	if st.Misses < uint64(len(pubs)) {
		t.Fatalf("only %d misses across %d distinct keys", st.Misses, len(pubs))
	}
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
	if st.Evictions != st.Misses-uint64(st.Entries) {
		t.Fatalf("evictions %d != misses %d - entries %d", st.Evictions, st.Misses, st.Entries)
	}
}
