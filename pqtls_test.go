package pqtls_test

import (
	"bytes"
	"net"
	"testing"

	"pqtls"
)

// The public façade must expose every suite the paper measures.
func TestPublicRegistries(t *testing.T) {
	t.Parallel()
	if len(pqtls.KEMNames()) != 23 {
		t.Errorf("KEMNames: %d entries, want 23", len(pqtls.KEMNames()))
	}
	if len(pqtls.SignatureNames()) != 31 { // 24 paper SAs + 3 ECDSA components + 3 sphincs-s + ed25519
		t.Errorf("SignatureNames: %d entries, want 31", len(pqtls.SignatureNames()))
	}
	k, err := pqtls.KEMByName("kyber768")
	if err != nil {
		t.Fatal(err)
	}
	if k.Level() != 3 {
		t.Errorf("kyber768 level %d, want 3", k.Level())
	}
	s, err := pqtls.SignatureByName("falcon512")
	if err != nil {
		t.Fatal(err)
	}
	if s.SignatureSize() != 666 {
		t.Errorf("falcon512 sig size %d, want 666", s.SignatureSize())
	}
}

// A server that mints its own root and then its leaf key, as
// cmd/pqtls-server does, must get two distinct key pairs: with an RSA root,
// a leaf that shared the root's key would be signed by itself.
func TestRSARootAndLeafKeysDiffer(t *testing.T) {
	t.Parallel()
	root, _, err := pqtls.SelfSigned("PQTLS Root CA", "rsa:2048")
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := pqtls.SignatureByName("rsa:2048")
	if err != nil {
		t.Fatal(err)
	}
	leafPub, _, err := scheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(root.PublicKey, leafPub) {
		t.Error("root and leaf share one RSA key pair")
	}
}

// End-to-end through the public API only.
func TestPublicHandshake(t *testing.T) {
	t.Parallel()
	root, rootPriv, err := pqtls.SelfSigned("Root", "dilithium2")
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := pqtls.SignatureByName("dilithium2")
	leafPub, leafPriv, err := scheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := pqtls.IssueCertificate(2, "server.example", "dilithium2", leafPub, root, rootPriv)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg := &pqtls.Config{
		KEMName: "kyber512", SigName: "dilithium2", ServerName: "server.example",
		Chain: []*pqtls.Certificate{leaf}, PrivateKey: leafPriv,
		Buffer: pqtls.BufferImmediate,
	}
	clientCfg := &pqtls.Config{
		KEMName: "kyber512", SigName: "dilithium2", ServerName: "server.example",
		Roots: pqtls.NewCertPool(root),
	}
	cConn, sConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := pqtls.ServerHandshake(sConn, serverCfg)
		errCh <- err
	}()
	cli, err := pqtls.ClientHandshake(cConn, clientCfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if cli.ServerCert.Algorithm != "dilithium2" {
		t.Errorf("certificate algorithm %q", cli.ServerCert.Algorithm)
	}
}

// A campaign through the public API reproduces the paper's headline claim:
// Kyber+Dilithium is at least competitive with X25519+RSA-2048.
func TestPublicCampaignShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in short mode")
	}
	t.Parallel()
	classical, err := pqtls.RunCampaign(pqtls.CampaignOptions{
		KEM: "x25519", Sig: "rsa:2048", Link: pqtls.ScenarioTestbed,
		Buffer: pqtls.BufferImmediate, Samples: 9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := pqtls.RunCampaign(pqtls.CampaignOptions{
		KEM: "kyber512", Sig: "dilithium2_aes", Link: pqtls.ScenarioTestbed,
		Buffer: pqtls.BufferImmediate, Samples: 9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Allow 2x headroom for noise; the paper (and our EXPERIMENTS.md runs)
	// show PQ at parity or faster.
	if pq.TotalMedian > 2*classical.TotalMedian {
		t.Errorf("kyber512+dilithium2_aes (%v) much slower than x25519+rsa:2048 (%v)",
			pq.TotalMedian, classical.TotalMedian)
	}
}
