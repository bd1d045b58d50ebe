package tls13

import (
	"net"
	"testing"
)

// runHRRHandshake drives a handshake where the client's key-share guess
// (guess) differs from the server's required group (want), exercising the
// HelloRetryRequest fallback.
func runHRRHandshake(t *testing.T, guess, want string) (*Client, *Server) {
	t.Helper()
	cliCfg, srvCfg := testConfigs(t, want, "rsa:2048", BufferImmediate)
	cliCfg.KEMName = guess
	cliCfg.SupportedKEMs = []string{want}

	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	flushes, err := srv.Respond(ch1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushes) != 1 || len(flushes[0].Records) != 1 {
		t.Fatalf("expected a lone HRR flush, got %d flushes", len(flushes))
	}
	ch2, done, err := cli.Consume(flushes[0].Records)
	if err != nil {
		t.Fatal(err)
	}
	if done || len(ch2) == 0 {
		t.Fatal("client did not produce a retry ClientHello")
	}
	flushes, err = srv.Respond(ch2)
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
		t.Fatal("client did not complete after retry")
	}
	if err := srv.Finish(final); err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

func TestHRRHandshake(t *testing.T) {
	t.Parallel()
	cli, srv := runHRRHandshake(t, "x25519", "kyber512")
	c1, s1 := cli.AppTrafficSecrets()
	c2, s2 := srv.AppTrafficSecrets()
	if string(c1) != string(c2) || string(s1) != string(s2) {
		t.Error("app secrets differ after HRR handshake")
	}
}

func TestHRRAcrossFamilies(t *testing.T) {
	t.Parallel()
	runHRRHandshake(t, "p256", "hqc128")
	runHRRHandshake(t, "kyber512", "p256_kyber512")
}

// A server must not send a second HRR, and a client must reject one.
func TestSecondHRRRejected(t *testing.T) {
	t.Parallel()
	cliCfg, _ := testConfigs(t, "kyber512", "rsa:2048", BufferImmediate)
	cliCfg.KEMName = "x25519"
	cliCfg.SupportedKEMs = []string{"kyber512", "p256"}
	cli, _ := NewClient(cliCfg)
	if _, err := cli.Start(); err != nil {
		t.Fatal(err)
	}
	hrr1 := Record{Type: RecordHandshake, Payload: marshalHRR([32]byte{}, groupIDs["kyber512"])}
	if _, _, err := cli.Consume([]Record{hrr1}); err != nil {
		t.Fatal(err)
	}
	hrr2 := Record{Type: RecordHandshake, Payload: marshalHRR([32]byte{}, groupIDs["p256"])}
	if _, _, err := cli.Consume([]Record{hrr2}); err == nil {
		t.Error("second HRR accepted")
	}
}

// The server must refuse HRR when the client does not support its group.
func TestHRRUnsupportedGroupFails(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "kyber512", "rsa:2048", BufferImmediate)
	cliCfg.KEMName = "x25519"
	cliCfg.SupportedKEMs = nil // offers only x25519
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, _ := cli.Start()
	if _, err := srv.Respond(ch); err == nil {
		t.Error("server negotiated a group the client does not support")
	}
}

// A client must reject an HRR selecting a group it never offered.
func TestHRRUnofferedGroupRejected(t *testing.T) {
	t.Parallel()
	cliCfg, _ := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	cli, _ := NewClient(cliCfg)
	if _, err := cli.Start(); err != nil {
		t.Fatal(err)
	}
	hrr := Record{Type: RecordHandshake, Payload: marshalHRR([32]byte{}, groupIDs["bikel1"])}
	if _, _, err := cli.Consume([]Record{hrr}); err == nil {
		t.Error("HRR for unoffered group accepted")
	}
}

// The full 2-RTT fallback must also work over a real byte stream. Under
// BufferDefault the post-HRR response is one flush, like the HRR itself, so
// the server driver must not mistake it for a second retry.
func TestHRROverPipe(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		sig    string
		buffer BufferPolicy
	}{
		{"dilithium2", BufferImmediate},
		{"ed25519", BufferDefault},
	} {
		cliCfg, srvCfg := testConfigs(t, "kyber512", tc.sig, tc.buffer)
		cliCfg.KEMName = "x25519"
		cliCfg.SupportedKEMs = []string{"kyber512"}
		cConn, sConn := net.Pipe()
		errCh := make(chan error, 1)
		go func() {
			_, err := ServerHandshake(sConn, srvCfg)
			errCh <- err
		}()
		cli, err := ClientHandshake(cConn, cliCfg)
		if err != nil {
			t.Fatalf("%s: client: %v", tc.sig, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%s: server: %v", tc.sig, err)
		}
		if !cli.Done() {
			t.Errorf("%s: client not done after HRR over pipe", tc.sig)
		}
	}
}

func TestMessageHash(t *testing.T) {
	t.Parallel()
	mh := messageHash([]byte{1, 2, 3})
	if mh[0] != 254 || len(mh) != 36 {
		t.Errorf("message_hash framing: type %d len %d", mh[0], len(mh))
	}
}
