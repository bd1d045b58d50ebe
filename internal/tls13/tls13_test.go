package tls13

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"pqtls/internal/pki"
	"pqtls/internal/sig"
)

// testConfigs builds matching client and server configs for a suite.
func testConfigs(t testing.TB, kemName, sigName string, buffer BufferPolicy) (*Config, *Config) {
	t.Helper()
	rootScheme := sig.MustByName("rsa:2048")
	root, rootPriv, err := pki.SelfSigned("Test Root CA", rootScheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	leafScheme := sig.MustByName(sigName)
	leafPub, leafPriv, err := leafScheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := pki.Issue(2, "server.example", sigName, leafPub, root, rootPriv)
	if err != nil {
		t.Fatal(err)
	}
	server := &Config{
		KEMName: kemName, SigName: sigName, ServerName: "server.example",
		Chain: []*pki.Certificate{leaf}, PrivateKey: leafPriv, Buffer: buffer,
	}
	client := &Config{
		KEMName: kemName, SigName: sigName, ServerName: "server.example",
		Roots: pki.NewPool(root),
	}
	return client, server
}

// runHandshake drives a complete sans-IO handshake and returns both ends.
func runHandshake(t testing.TB, cliCfg, srvCfg *Config) (*Client, *Server) {
	t.Helper()
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	flushes, err := srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	var final []Record
	for _, f := range flushes {
		out, done, err := cli.Consume(f.Records)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			final = out
		}
	}
	if final == nil {
		t.Fatal("client did not complete after all server flushes")
	}
	if err := srv.Finish(final); err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

func TestHandshakeBaseline(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	cli, srv := runHandshake(t, cliCfg, srvCfg)
	cApp1, sApp1 := cli.AppTrafficSecrets()
	cApp2, sApp2 := srv.AppTrafficSecrets()
	if !bytes.Equal(cApp1, cApp2) || !bytes.Equal(sApp1, sApp2) {
		t.Error("application traffic secrets differ between endpoints")
	}
	if cli.ServerCert == nil || cli.ServerCert.Subject != "server.example" {
		t.Error("client did not record the server certificate")
	}
}

// Every KA×SA combination used in the paper's main tables must hand-shake.
func TestHandshakeSuiteMatrix(t *testing.T) {
	t.Parallel()
	cases := []struct{ kem, sig string }{
		{"x25519", "rsa:1024"},
		{"x25519", "rsa:4096"},
		{"kyber512", "rsa:2048"},
		{"kyber90s512", "dilithium2"},
		{"kyber768", "dilithium3"},
		{"kyber1024", "dilithium5"},
		{"hqc128", "falcon512"},
		{"hqc256", "falcon1024"},
		{"bikel1", "dilithium2"},
		{"p256", "ecdsa-p256"},
		{"p384", "dilithium3_aes"},
		{"p521", "dilithium5_aes"},
		{"p256_kyber512", "p256_dilithium2"},
		{"p384_kyber768", "p384_dilithium3"},
		{"p521_kyber1024", "p521_falcon1024"},
		{"p256_hqc128", "rsa3072_dilithium2"},
		{"x25519", "sphincs128"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.kem+"/"+strings.ReplaceAll(c.sig, ":", ""), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && (c.kem == "bikel1" || c.sig == "sphincs128") {
				t.Skip("slow in short mode")
			}
			for _, buffer := range []BufferPolicy{BufferDefault, BufferImmediate} {
				cliCfg, srvCfg := testConfigs(t, c.kem, c.sig, buffer)
				runHandshake(t, cliCfg, srvCfg)
			}
		})
	}
}

// The optimized policy must always push the ServerHello in its own early
// flush; the default policy must coalesce small flights into one flush.
func TestBufferPolicies(t *testing.T) {
	t.Parallel()
	// Small flight (rsa:2048 cert fits the 4096B buffer).
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferDefault)
	srv, _ := NewServer(srvCfg)
	cli, _ := NewClient(cliCfg)
	ch, _ := cli.Start()
	flushes, err := srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushes) != 1 {
		t.Errorf("default policy, small flight: %d flushes, want 1", len(flushes))
	}

	cliCfg, srvCfg = testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srv, _ = NewServer(srvCfg)
	cli, _ = NewClient(cliCfg)
	ch, _ = cli.Start()
	flushes, err = srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushes) != 3 {
		t.Errorf("immediate policy: %d flushes, want 3", len(flushes))
	}
	if flushes[0].Records[0].Type != RecordHandshake {
		t.Error("immediate policy: first flush does not start with ServerHello")
	}
	// Offsets must be non-decreasing.
	for i := 1; i < len(flushes); i++ {
		if flushes[i].Offset < flushes[i-1].Offset {
			t.Error("flush offsets are not monotonic")
		}
	}

	// Large flight (dilithium2 cert ~10kB exceeds the buffer): even the
	// default policy must split, pushing the SH early.
	cliCfg, srvCfg = testConfigs(t, "x25519", "dilithium2", BufferDefault)
	srv, _ = NewServer(srvCfg)
	cli, _ = NewClient(cliCfg)
	ch, _ = cli.Start()
	flushes, err = srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushes) < 2 {
		t.Errorf("default policy, large flight: %d flushes, want >= 2", len(flushes))
	}
}

func TestGroupMismatchRejected(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferDefault)
	cliCfg.KEMName = "p256" // client offers a different group
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Respond(ch); err == nil {
		t.Error("server accepted mismatched group")
	}
}

func TestUntrustedRootRejected(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferDefault)
	otherRoot, _, err := pki.SelfSigned("Other CA", sig.MustByName("rsa:2048"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cliCfg.Roots = pki.NewPool(otherRoot)
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, _ := cli.Start()
	flushes, err := srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for _, f := range flushes {
		if _, _, err := cli.Consume(f.Records); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Error("client accepted certificate from untrusted root")
	}
}

func TestWrongServerNameRejected(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferDefault)
	cliCfg.ServerName = "other.example"
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, _ := cli.Start()
	flushes, err := srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for _, f := range flushes {
		if _, _, err := cli.Consume(f.Records); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Error("client accepted certificate for wrong name")
	}
}

// Tampering with the encrypted flight must break AEAD decryption.
func TestTamperedRecordRejected(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "kyber512", "dilithium2", BufferDefault)
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, _ := cli.Start()
	flushes, err := srv.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for _, f := range flushes {
		for i := range f.Records {
			if f.Records[i].Type == RecordApplicationData {
				f.Records[i].Payload[0] ^= 1
				break
			}
		}
		if _, _, err := cli.Consume(f.Records); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Error("client accepted tampered encrypted record")
	}
}

// Handshake over a real byte stream (net.Pipe), both directions concurrent.
func TestPipeHandshake(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "p256_kyber512", "dilithium2", BufferImmediate)
	cConn, sConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, srvCfg)
		errCh <- err
	}()
	cli, err := ClientHandshake(cConn, cliCfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if !cli.Done() {
		t.Error("client not done")
	}
}

// The record layer must fragment large handshake messages (SPHINCS+ certs).
func TestFragmentation(t *testing.T) {
	if testing.Short() {
		t.Skip("sphincs is slow in short mode")
	}
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "sphincs128", BufferDefault)
	cli, srv := runHandshake(t, cliCfg, srvCfg)
	_ = cli
	_ = srv
}

func TestRecordRoundtrip(t *testing.T) {
	t.Parallel()
	rec := Record{Type: RecordHandshake, Payload: []byte{1, 2, 3}}
	wire := rec.Marshal()
	back, rest, err := ParseRecord(wire)
	if err != nil || len(rest) != 0 {
		t.Fatalf("parse: %v (rest %d)", err, len(rest))
	}
	if back.Type != rec.Type || !bytes.Equal(back.Payload, rec.Payload) {
		t.Error("record roundtrip mismatch")
	}
	if _, _, err := ParseRecord(wire[:3]); err == nil {
		t.Error("short record accepted")
	}
}

// HKDF-Expand-Label against the RFC 8446 shape: length and determinism.
func TestKeySchedule(t *testing.T) {
	t.Parallel()
	ks1 := newKeySchedule()
	ks2 := newKeySchedule()
	msg := []byte{1, 0, 0, 1, 42}
	ks1.addMessage(msg)
	ks2.addMessage(msg)
	ss := bytes.Repeat([]byte{7}, 32)
	ks1.setSharedSecret(ss)
	ks2.setSharedSecret(ss)
	if ks1.clientHSTraffic != ks2.clientHSTraffic {
		t.Error("key schedule is not deterministic")
	}
	if ks1.clientHSTraffic == ks1.serverHSTraffic {
		t.Error("client and server traffic secrets are equal")
	}
	k, iv := ks1.trafficKeys(ks1.clientHSTraffic[:])
	if len(k) != 16 || len(iv) != 12 {
		t.Errorf("traffic key sizes: key=%d iv=%d", len(k), len(iv))
	}
	// The zero-alloc schedule must agree with crypto/hkdf, which the
	// package-level hkdf* functions wrap.
	hs := hkdfExtract(deriveSecret(noPSKEarly[:], "derived", emptyHash()), ss)
	th := ks1.transcriptHash()
	want := deriveSecret(hs, "c hs traffic", append([]byte{}, th...))
	if !bytes.Equal(want, ks1.clientHSTraffic[:]) {
		t.Error("scratch-based schedule diverges from reference HKDF")
	}
	wantKey := hkdfExpandLabel(ks1.clientHSTraffic[:], "key", nil, 16)
	if !bytes.Equal(wantKey, k) {
		t.Error("trafficKeys diverges from reference HKDF-Expand-Label")
	}
}

// The post-construction key schedule must not allocate: transcript absorb,
// secret derivation, traffic keys, and Finished MACs all run in scratch.
func TestKeyScheduleZeroAlloc(t *testing.T) {
	kern := NewKeyScheduleKernel()
	ss := bytes.Repeat([]byte{7}, 32)
	msg := bytes.Repeat([]byte{3}, 512)
	var sink byte
	allocs := testing.AllocsPerRun(200, func() {
		sink ^= kern.Run(ss, msg)
	})
	if allocs != 0 {
		t.Errorf("key schedule kernel allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func BenchmarkHandshake(b *testing.B) {
	for _, suite := range []struct{ kem, sig string }{
		{"x25519", "rsa:2048"},
		{"kyber512", "dilithium2"},
	} {
		cliCfg, srvCfg := testConfigs(b, suite.kem, suite.sig, BufferImmediate)
		b.Run(suite.kem+"_"+strings.ReplaceAll(suite.sig, ":", ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cli, _ := NewClient(cliCfg)
				srv, _ := NewServer(srvCfg)
				ch, _ := cli.Start()
				flushes, err := srv.Respond(ch)
				if err != nil {
					b.Fatal(err)
				}
				var final []Record
				for _, f := range flushes {
					out, done, err := cli.Consume(f.Records)
					if err != nil {
						b.Fatal(err)
					}
					if done {
						final = out
					}
				}
				if err := srv.Finish(final); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A failed certificate validation must surface as a bad_certificate alert
// on the wire, which the server reports as an AlertError.
func TestAlertOnBadCertificate(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	otherRoot, _, err := pki.SelfSigned("Other CA", sig.MustByName("rsa:2048"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cliCfg.Roots = pki.NewPool(otherRoot)
	// Real TCP loopback: unlike net.Pipe it buffers writes, so the failing
	// client's alert does not deadlock against the server's last flight.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		_, err = ServerHandshake(conn, srvCfg)
		srvErr <- err
	}()
	cConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cConn.Close()
	if _, err := ClientHandshake(cConn, cliCfg); err == nil {
		t.Fatal("client accepted untrusted certificate")
	}
	err = <-srvErr
	var alert *AlertError
	if !errorsAs(err, &alert) {
		t.Fatalf("server error %v, want AlertError", err)
	}
	if alert.Description != AlertBadCertificate {
		t.Errorf("alert %d, want bad_certificate (42)", alert.Description)
	}
}

func errorsAs(err error, target **AlertError) bool {
	for err != nil {
		if a, ok := err.(*AlertError); ok {
			*target = a
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestAlertRecord(t *testing.T) {
	t.Parallel()
	rec := FatalAlert(AlertHandshakeFailure)
	if rec.Type != RecordAlert || rec.Payload[0] != 2 || rec.Payload[1] != 40 {
		t.Errorf("FatalAlert record: %+v", rec)
	}
	err := parseAlert(rec)
	if err == nil || err.Error() != "tls13: remote alert: handshake_failure (40)" {
		t.Errorf("parseAlert: %v", err)
	}
}
