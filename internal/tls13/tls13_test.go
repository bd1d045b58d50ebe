package tls13

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"pqtls/internal/pki"
	"pqtls/internal/sig"
)

// testCA is the RSA-2048 root every test chain hangs off; testRoot makes
// it on first use.
type testCA struct {
	cert *pki.Certificate
	priv []byte
}

var testRoot = sync.OnceValues(func() (testCA, error) {
	cert, priv, err := pki.SelfSigned("Test Root CA", sig.MustByName("rsa:2048"), nil)
	return testCA{cert, priv}, err
})

// testKeys holds one leaf key pair per scheme name, made on first use.
// The root and the leaf keys are shared by the whole test binary: a fresh
// RSA key per testConfigs call would dominate the package's run time.
var testKeys sync.Map // scheme name -> func() ([2][]byte, error)

func testKeyPair(name string) (pub, priv []byte, err error) {
	f, _ := testKeys.LoadOrStore(name, sync.OnceValues(func() ([2][]byte, error) {
		pub, priv, err := sig.MustByName(name).GenerateKey(nil)
		return [2][]byte{pub, priv}, err
	}))
	kp, err := f.(func() ([2][]byte, error))()
	return kp[0], kp[1], err
}

// testConfigs builds matching client and server configs for a suite.
func testConfigs(t testing.TB, kemName, sigName string, buffer BufferPolicy) (*Config, *Config) {
	t.Helper()
	ca, err := testRoot()
	if err != nil {
		t.Fatal(err)
	}
	root, rootPriv := ca.cert, ca.priv
	leafPub, leafPriv, err := testKeyPair(sigName)
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

// ParseBufferPolicy accepts exactly the two policy names; a typo must be an
// error, not a silent fall-back to one of the policies.
func TestParseBufferPolicy(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		want BufferPolicy
		ok   bool
	}{
		{"default", BufferDefault, true},
		{"immediate", BufferImmediate, true},
		{"defualt", 0, false},
		{"Default", 0, false},
		{"both", 0, false},
		{"", 0, false},
	} {
		got, err := ParseBufferPolicy(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseBufferPolicy(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
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
	if !errors.As(err, &alert) {
		t.Fatalf("server error %v, want AlertError", err)
	}
	if alert.Description != AlertBadCertificate {
		t.Errorf("alert %d, want bad_certificate (42)", alert.Description)
	}
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

// TestOutOfOrderCalls drives the sans-IO API out of order: each call must
// return an error, never panic or silently restart the handshake.
func TestOutOfOrderCalls(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferDefault)
	appData := []Record{{Type: RecordApplicationData, Payload: make([]byte, 64)}}
	cases := []struct {
		name string
		call func(cli *Client, srv *Server) error
	}{
		{"Server.Finish before Respond", func(_ *Client, srv *Server) error {
			return srv.Finish(appData)
		}},
		{"Client.Start twice", func(cli *Client, _ *Server) error {
			if _, err := cli.Start(); err != nil {
				t.Fatalf("first Start: %v", err)
			}
			_, err := cli.Start()
			return err
		}},
		{"Server.Respond after the server flight", func(cli *Client, srv *Server) error {
			hello, err := cli.Start()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Respond(hello); err != nil {
				t.Fatalf("first Respond: %v", err)
			}
			_, err = srv.Respond(hello)
			return err
		}},
	}
	for _, tc := range cases {
		cli, err := NewClient(cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.call(cli, srv); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
