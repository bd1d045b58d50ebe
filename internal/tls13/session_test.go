package tls13

import (
	"bytes"
	"testing"
)

// fullHandshakeWithTicket runs a full handshake and returns the session
// both sides agree on.
func fullHandshakeWithTicket(t *testing.T, cliCfg, srvCfg *Config) *Session {
	t.Helper()
	cli, srv := runHandshake(t, cliCfg, srvCfg)
	flight, srvSess, err := srv.SessionTicket()
	if err != nil {
		t.Fatal(err)
	}
	cliSess, err := cli.ProcessTicket(flight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srvSess.PSK, cliSess.PSK) {
		t.Fatal("client and server derived different resumption PSKs")
	}
	return cliSess
}

func TestSessionResumption(t *testing.T) {
	t.Parallel()
	var ticketKey [16]byte
	copy(ticketKey[:], "sixteen byte key")
	cliCfg, srvCfg := testConfigs(t, "kyber512", "dilithium2", BufferImmediate)
	srvCfg.Tickets = NewTicketStore(ticketKey)

	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	// Resumed handshake: fresh endpoints, session attached.
	cliCfg2, srvCfg2 := testConfigs(t, "kyber512", "dilithium2", BufferImmediate)
	srvCfg2.Tickets = NewTicketStore(ticketKey)
	cliCfg2.Session = sess
	cli, err := NewClient(cliCfg2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg2)
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
	// The resumed flight must not contain a Certificate: with dilithium2 a
	// full flight is ~12 kB; a resumed one fits in ~3 records.
	totalBytes := 0
	for _, f := range flushes {
		totalBytes += WireSize(f.Records)
	}
	if totalBytes > 1000 {
		t.Errorf("resumed server flight is %d bytes; certificate not skipped?", totalBytes)
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
		t.Fatal("resumed client did not finish")
	}
	if err := srv.Finish(final); err != nil {
		t.Fatal(err)
	}
	c1, s1 := cli.AppTrafficSecrets()
	c2, s2 := srv.AppTrafficSecrets()
	if !bytes.Equal(c1, c2) || !bytes.Equal(s1, s2) {
		t.Error("app secrets differ on resumed handshake")
	}
}

// A tampered binder must be rejected.
func TestResumptionBadBinderRejected(t *testing.T) {
	t.Parallel()
	var ticketKey [16]byte
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srvCfg.Tickets = NewTicketStore(ticketKey)
	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	cliCfg2, srvCfg2 := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srvCfg2.Tickets = NewTicketStore(ticketKey)
	bad := *sess
	bad.PSK = append([]byte{}, sess.PSK...)
	bad.PSK[0] ^= 1 // wrong PSK -> wrong binder
	cliCfg2.Session = &bad
	cli, _ := NewClient(cliCfg2)
	srv, _ := NewServer(srvCfg2)
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Respond(ch); err == nil {
		t.Error("server accepted a PSK with a wrong binder")
	}
}

// A ticket sealed under a different server key must be rejected.
func TestResumptionWrongTicketKey(t *testing.T) {
	t.Parallel()
	var keyA, keyB [16]byte
	keyB[0] = 1
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srvCfg.Tickets = NewTicketStore(keyA)
	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	cliCfg2, srvCfg2 := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srvCfg2.Tickets = NewTicketStore(keyB)
	cliCfg2.Session = sess
	cli, _ := NewClient(cliCfg2)
	srv, _ := NewServer(srvCfg2)
	ch, _ := cli.Start()
	if _, err := srv.Respond(ch); err == nil {
		t.Error("server accepted a ticket sealed under another key")
	}
}

// A ticket is bound to its key agreement; resuming under a different KEM
// must fail.
func TestResumptionKEMBinding(t *testing.T) {
	t.Parallel()
	var ticketKey [16]byte
	cliCfg, srvCfg := testConfigs(t, "x25519", "rsa:2048", BufferImmediate)
	srvCfg.Tickets = NewTicketStore(ticketKey)
	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	cliCfg2, srvCfg2 := testConfigs(t, "kyber512", "rsa:2048", BufferImmediate)
	srvCfg2.Tickets = NewTicketStore(ticketKey)
	cliCfg2.Session = sess
	cli, _ := NewClient(cliCfg2)
	srv, _ := NewServer(srvCfg2)
	ch, _ := cli.Start()
	if _, err := srv.Respond(ch); err == nil {
		t.Error("server resumed a ticket under the wrong key agreement")
	}
}

func TestTicketSealRoundtrip(t *testing.T) {
	t.Parallel()
	var key [16]byte
	key[3] = 7
	psk := bytes.Repeat([]byte{0xAB}, 32)
	ticket, err := NewTicketStore(key).Seal(psk, "kyber768")
	if err != nil {
		t.Fatal(err)
	}
	// A second store over the same key models the shared-STEK deployment.
	peer := NewTicketStore(key)
	gotPSK, gotName, err := peer.Open(ticket)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPSK, psk) || gotName != "kyber768" {
		t.Error("ticket roundtrip corrupted state")
	}
	ticket[len(ticket)-1] ^= 1
	if _, _, err := peer.Open(ticket); err == nil {
		t.Error("tampered ticket accepted")
	}
	st := peer.Stats()
	if st.Redeemed != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 redeemed / 1 rejected", st)
	}
}

// Regression: a ClientHello whose random/key-share bytes happen to contain
// the pre_shared_key codepoint (0x00 0x29) must not be mistaken for a PSK
// offer (the old LastIndex heuristic panicked on exactly this).
func TestNoPSKFalsePositive(t *testing.T) {
	t.Parallel()
	ch := &clientHello{groups: []uint16{groupIDs["x25519"]}, sigAlgs: []uint16{sigIDs["rsa:2048"]},
		keyShares: []keyShare{{group: groupIDs["x25519"], data: bytes.Repeat([]byte{0x00, 0x29}, 16)}}}
	ch.random = [32]byte{0x00, 0x29, 0x00, 0x29}
	msg := ch.marshal()
	// And the tail bytes specifically (the old heuristic's worst case).
	msg2 := append([]byte{}, msg...)
	msg2[len(msg2)-2], msg2[len(msg2)-1] = 0x00, 0x29
	for _, m := range [][]byte{msg, msg2} {
		_, body, _, _ := parseHandshakeMsg(m)
		got, err := parseClientHello(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.psk {
			t.Error("plain ClientHello misdetected as a PSK offer")
		}
	}
}

// A genuine PSK ClientHello carries the ticket, and its binder verifies
// over the partial transcript that parseClientHello locates.
func TestPSKExtensionRoundtrip(t *testing.T) {
	t.Parallel()
	cliCfg, _ := testConfigs(t, "kyber512", "rsa:2048", BufferImmediate)
	sess := &Session{Ticket: bytes.Repeat([]byte{7}, 40), PSK: bytes.Repeat([]byte{9}, 32), KEMName: "kyber512"}
	cliCfg.Session = sess
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	msg := flight[0].Payload
	_, body, _, _ := parseHandshakeMsg(msg)
	ch, err := parseClientHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.psk {
		t.Fatal("PSK extension not found in PSK ClientHello")
	}
	if !bytes.Equal(ch.pskIdentity, sess.Ticket) {
		t.Error("ticket corrupted in transit")
	}
	if !bytes.Equal(ch.pskBinder, computeBinder(sess.PSK, nil, msg[:4+ch.bindersOff])) {
		t.Error("binder does not verify over the parsed partial transcript")
	}
}
