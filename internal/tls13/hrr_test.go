package tls13

import (
	"bytes"
	"net"
	"slices"
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

// The second ClientHello is the first with only key_share replaced (RFC
// 8446 §4.1.2): the same random, session id, groups and signature
// algorithms, and a fresh share for the group the HRR names. A resuming
// client re-offers the same ticket.
func TestRetryHelloRepeatsFirst(t *testing.T) {
	t.Parallel()
	for _, resume := range []bool{false, true} {
		cliCfg, srvCfg := testConfigs(t, "kyber512", "ed25519", BufferImmediate)
		if resume {
			srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{3})
			cliCfg.Session = fullHandshakeWithTicket(t, cliCfg, srvCfg)
		}
		cliCfg.KEMName = "x25519"
		cliCfg.SupportedKEMs = []string{"kyber512"}
		cli, err := NewClient(cliCfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(srvCfg)
		if err != nil {
			t.Fatal(err)
		}
		hello1, err := cli.Start()
		if err != nil {
			t.Fatal(err)
		}
		flushes, err := srv.Respond(hello1)
		if err != nil {
			t.Fatal(err)
		}
		hello2, _, err := cli.Consume(flushes[0].Records)
		if err != nil {
			t.Fatal(err)
		}
		ch1, err := parseClientHello(body(hello1[0].Payload))
		if err != nil {
			t.Fatal(err)
		}
		ch2, err := parseClientHello(body(hello2[0].Payload))
		if err != nil {
			t.Fatal(err)
		}
		if ch2.random != ch1.random || ch2.sessionID != ch1.sessionID {
			t.Errorf("resume %v: CH2 random or session id differs from CH1", resume)
		}
		if !slices.Equal(ch2.groups, ch1.groups) || !slices.Equal(ch2.sigAlgs, ch1.sigAlgs) {
			t.Errorf("resume %v: CH2 groups %v, sig algs %v; CH1 %v, %v",
				resume, ch2.groups, ch2.sigAlgs, ch1.groups, ch1.sigAlgs)
		}
		if ch2.psk != resume || !bytes.Equal(ch2.pskIdentity, ch1.pskIdentity) {
			t.Errorf("resume %v: CH2 offers PSK %v with identity equal to CH1's: %v",
				resume, ch2.psk, bytes.Equal(ch2.pskIdentity, ch1.pskIdentity))
		}
		if len(ch2.keyShares) != 1 || ch2.keyShares[0].group != groupIDs["kyber512"] ||
			bytes.Equal(ch2.keyShares[0].data, ch1.keyShares[0].data) {
			t.Errorf("resume %v: CH2 does not carry one fresh kyber512 share", resume)
		}
	}
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
	hrr1 := Record{Type: RecordHandshake, Payload: (&serverHello{sessionID: cli.ch1.sessionID, group: groupIDs["kyber512"], hrr: true}).marshal()}
	if _, _, err := cli.Consume([]Record{hrr1}); err != nil {
		t.Fatal(err)
	}
	hrr2 := Record{Type: RecordHandshake, Payload: (&serverHello{sessionID: cli.ch1.sessionID, group: groupIDs["p256"], hrr: true}).marshal()}
	if _, _, err := cli.Consume([]Record{hrr2}); err == nil {
		t.Error("second HRR accepted")
	} else if alertFor(err) != AlertUnexpectedMessage {
		t.Errorf("second HRR answered with alert %d, want unexpected_message (10)", alertFor(err))
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
	hrr := Record{Type: RecordHandshake, Payload: (&serverHello{sessionID: cli.ch1.sessionID, group: groupIDs["bikel1"], hrr: true}).marshal()}
	if _, _, err := cli.Consume([]Record{hrr}); err == nil {
		t.Error("HRR for unoffered group accepted")
	} else if alertFor(err) != AlertIllegalParameter {
		t.Errorf("HRR for unoffered group answered with alert %d, want illegal_parameter (47)", alertFor(err))
	}
}

// The full 2-RTT fallback must also work over a real byte stream. Under
// BufferDefault the post-HRR response is one flush, like the HRR itself, so
// the server driver must not mistake it for a second retry. A resuming
// client re-offers its PSK in the retried ClientHello, with the binder over
// the restarted transcript (RFC 8446 §4.1.2), and the server resumes.
func TestHRROverPipe(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		sig    string
		buffer BufferPolicy
		resume bool
	}{
		{"dilithium2", BufferImmediate, false},
		{"ed25519", BufferDefault, false},
		{"dilithium2", BufferImmediate, true},
		{"ed25519", BufferDefault, true},
	} {
		cliCfg, srvCfg := testConfigs(t, "kyber512", tc.sig, tc.buffer)
		if tc.resume {
			srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{3})
			cliCfg.Session = fullHandshakeWithTicket(t, cliCfg, srvCfg)
		}
		cliCfg.KEMName = "x25519"
		cliCfg.SupportedKEMs = []string{"kyber512"}
		cConn, sConn := net.Pipe()
		type result struct {
			srv *Server
			err error
		}
		srvCh := make(chan result, 1)
		go func() {
			srv, err := ServerHandshake(sConn, srvCfg)
			srvCh <- result{srv, err}
		}()
		cli, err := ClientHandshake(cConn, cliCfg)
		if err != nil {
			t.Fatalf("%s (resume %v): client: %v", tc.sig, tc.resume, err)
		}
		res := <-srvCh
		if res.err != nil {
			t.Fatalf("%s (resume %v): server: %v", tc.sig, tc.resume, res.err)
		}
		if !cli.Done() {
			t.Errorf("%s (resume %v): client not done after HRR over pipe", tc.sig, tc.resume)
		}
		if res.srv.ResumedSession() != tc.resume || (cli.ServerCert == nil) != tc.resume {
			t.Errorf("%s: resumed %v (server certificate sent: %v), want %v",
				tc.sig, res.srv.ResumedSession(), cli.ServerCert != nil, tc.resume)
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
