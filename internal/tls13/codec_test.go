package tls13

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"testing"

	"pqtls/internal/pki"
	"pqtls/internal/wire"
)

// transcript holds the parsed-by-a-peer messages of one honest full
// handshake plus a NewSessionTicket, decrypted, and the plaintext of the
// ticket itself.
type transcript struct {
	clientHello, serverHello, certificate, certVerify []byte
	ticket, ticketState                               []byte
}

// honestTranscript runs a full sans-IO handshake and a ticket issue and
// decrypts what the server sent.
func honestTranscript(tb testing.TB, kemName, sigName string) transcript {
	tb.Helper()
	cliCfg, srvCfg := testConfigs(tb, kemName, sigName, BufferDefault)
	srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{1})
	cli, err := NewClient(cliCfg)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		tb.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		tb.Fatal(err)
	}
	tr := transcript{clientHello: hello[0].Payload}
	flushes, err := srv.Respond(hello)
	if err != nil {
		tb.Fatal(err)
	}
	key, iv := srv.ks.trafficKeys(srv.ks.serverHSTraffic[:])
	hc, err := newHalfConn(key, iv)
	if err != nil {
		tb.Fatal(err)
	}
	var plain []byte
	var final []Record
	for _, f := range flushes {
		for _, rec := range f.Records {
			switch rec.Type {
			case RecordHandshake:
				tr.serverHello = rec.Payload
			case RecordApplicationData:
				_, pt, err := hc.open(rec)
				if err != nil {
					tb.Fatal(err)
				}
				plain = append(plain, pt...)
			}
		}
		out, done, err := cli.Consume(f.Records)
		if err != nil {
			tb.Fatal(err)
		}
		if done {
			final = out
		}
	}
	if err := srv.Finish(final); err != nil {
		tb.Fatal(err)
	}
	var encryptedExts, finished []byte
	for _, dst := range []*[]byte{&encryptedExts, &tr.certificate, &tr.certVerify, &finished} {
		_, _, rest, ok := parseHandshakeMsg(plain)
		if !ok {
			tb.Fatal("server flight ends mid-message")
		}
		*dst = plain[:len(plain)-len(rest)]
		plain = rest
	}

	flight, sess, err := srv.SessionTicket()
	if err != nil {
		tb.Fatal(err)
	}
	key, iv = srv.ks.trafficKeys(srv.ks.serverAppTraffic[:])
	if hc, err = newHalfConn(key, iv); err != nil {
		tb.Fatal(err)
	}
	if _, tr.ticket, err = hc.open(flight[0]); err != nil {
		tb.Fatal(err)
	}
	tr.ticketState, err = srvCfg.Tickets.aead.Open(nil, sess.Ticket[:ticketNonceSize], sess.Ticket[ticketNonceSize:], nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// body strips a handshake message's 4-byte header.
func body(msg []byte) []byte {
	_, b, _, _ := parseHandshakeMsg(msg)
	return b
}

// seedTranscripts are the shapes the fuzz corpora start from.
func seedTranscripts(tb testing.TB) []transcript {
	return []transcript{
		honestTranscript(tb, "x25519", "ed25519"),
		honestTranscript(tb, "kyber768", "dilithium3"),
	}
}

// Every message this stack marshals parses back to a value that marshals
// to the same bytes: plain, PSK and retried ClientHellos, ServerHello and
// HelloRetryRequest, Certificate, CertificateVerify and NewSessionTicket.
func TestMarshalParseMarshal(t *testing.T) {
	t.Parallel()
	check := func(name string, msg, again []byte) {
		t.Helper()
		if !bytes.Equal(msg, again) {
			t.Errorf("%s: re-marshaled %d bytes differ from the %d parsed", name, len(again), len(msg))
		}
	}
	for _, tr := range seedTranscripts(t) {
		ch, err := parseClientHello(body(tr.clientHello))
		if err != nil {
			t.Fatal(err)
		}
		check("ClientHello", tr.clientHello, ch.marshal())
		sh, err := parseServerHello(body(tr.serverHello))
		if err != nil {
			t.Fatal(err)
		}
		check("ServerHello", tr.serverHello, sh.marshal())
		certs, err := parseCertificate(body(tr.certificate))
		if err != nil {
			t.Fatal(err)
		}
		check("Certificate", tr.certificate, marshalCertificate(certs))
		alg, sig, err := parseCertVerify(body(tr.certVerify))
		if err != nil {
			t.Fatal(err)
		}
		check("CertificateVerify", tr.certVerify, marshalCertVerify(alg, sig))
		nonce, ticket, err := parseNewSessionTicket(body(tr.ticket))
		if err != nil {
			t.Fatal(err)
		}
		check("NewSessionTicket", tr.ticket, marshalNewSessionTicket(nonce, ticket))
	}

	// A PSK ClientHello, and the HelloRetryRequest and retried ClientHello
	// of a 2-RTT handshake.
	cliCfg, srvCfg := testConfigs(t, "kyber512", "ed25519", BufferImmediate)
	cliCfg.Session = &Session{Ticket: []byte("ticket"), PSK: make([]byte, 32), KEMName: "kyber512"}
	cliCfg.KEMName, cliCfg.SupportedKEMs = "x25519", []string{"kyber512"}
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	flushes, err := srv.Respond(hello)
	if err != nil {
		t.Fatal(err)
	}
	retry, _, err := cli.Consume(flushes[0].Records)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{hello[0].Payload, retry[0].Payload} {
		ch, err := parseClientHello(body(msg))
		if err != nil {
			t.Fatal(err)
		}
		check("ClientHello", msg, ch.marshal())
	}
	hrr := flushes[0].Records[0].Payload
	sh, err := parseServerHello(body(hrr))
	if err != nil || !sh.hrr {
		t.Fatalf("HelloRetryRequest: %v, hrr %v", err, sh != nil && sh.hrr)
	}
	check("HelloRetryRequest", hrr, sh.marshal())
}

func FuzzCertificateParse(f *testing.F) {
	for _, tr := range seedTranscripts(f) {
		f.Add(body(tr.certificate))
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		certs, err := parseCertificate(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		again, err := parseCertificate(body(marshalCertificate(certs)))
		if err != nil || len(again) != len(certs) {
			t.Fatalf("re-marshaled Certificate: %v", err)
		}
		for i := range certs {
			if !bytes.Equal(certs[i], again[i]) {
				t.Fatalf("certificate %d changed in the round trip", i)
			}
			// The entry is what pki.Unmarshal reads next; it must not panic.
			pki.Unmarshal(certs[i])
		}
	})
}

// An accepted CertificateVerify is canonical: it re-marshals to its input.
func FuzzCertVerifyParse(f *testing.F) {
	for _, tr := range seedTranscripts(f) {
		f.Add(body(tr.certVerify))
	}
	f.Add([]byte{8, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		alg, sig, err := parseCertVerify(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		if again := body(marshalCertVerify(alg, sig)); !bytes.Equal(again, data) {
			t.Fatalf("accepted CertificateVerify %x re-marshals to %x", data, again)
		}
	})
}

func FuzzNewSessionTicketParse(f *testing.F) {
	for _, tr := range seedTranscripts(f) {
		f.Add(body(tr.ticket))
	}
	f.Add(make([]byte, 13))
	f.Fuzz(func(t *testing.T, data []byte) {
		nonce, ticket, err := parseNewSessionTicket(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		n2, t2, err := parseNewSessionTicket(body(marshalNewSessionTicket(nonce, ticket)))
		if err != nil || !bytes.Equal(n2, nonce) || !bytes.Equal(t2, ticket) {
			t.Fatalf("re-marshaled NewSessionTicket: %v", err)
		}
	})
}

// An accepted ticket state is canonical: it re-encodes to its input.
func FuzzTicketStateParse(f *testing.F) {
	for _, tr := range seedTranscripts(f) {
		f.Add(tr.ticketState)
	}
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		psk, name, err := parseTicketState(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		b := wire.NewBuilder(nil)
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(psk) })
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes([]byte(name)) })
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatalf("accepted ticket state %x re-encodes to %x", data, b.Bytes())
		}
	})
}

// Values that outlive the buffer they were parsed from are copies: a
// Session from ProcessTicket and a certificate from pki.Unmarshal stay
// intact when the input is overwritten, and when the client decrypts a
// second ticket into the record buffer the first was parsed from.
func TestParsedValuesOutliveTheirInput(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{2})
	cli, srv := runHandshake(t, cliCfg, srvCfg)
	var sent, got []*Session
	for i := 0; i < 2; i++ {
		flight, srvSess, err := srv.SessionTicket()
		if err != nil {
			t.Fatal(err)
		}
		cliSess, err := cli.ProcessTicket(flight)
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		for _, rec := range flight {
			for j := range rec.Payload {
				rec.Payload[j] = 0xAA
			}
		}
		sent, got = append(sent, srvSess), append(got, cliSess)
	}
	for i := range sent {
		if !bytes.Equal(got[i].Ticket, sent[i].Ticket) || !bytes.Equal(got[i].PSK, sent[i].PSK) {
			t.Errorf("session %d changed after its input was overwritten", i)
		}
	}
	if bytes.Equal(got[0].Ticket, got[1].Ticket) {
		t.Error("two tickets on one connection are identical")
	}

	want := srvCfg.Chain[0]
	data := want.Marshal()
	cert, err := pki.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !bytes.Equal(cert.Marshal(), want.Marshal()) {
		t.Error("certificate changed after its input was overwritten")
	}
}

// The server picks its configured group and scheme from anywhere in the
// ClientHello's key_share and signature_algorithms lists (RFC 8446 §4.2.3,
// §4.2.8), here from the second entry of each.
func TestServerChoosesFromClientLists(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := parseClientHello(body(hello[0].Payload))
	if err != nil {
		t.Fatal(err)
	}
	p256, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ch.groups = append([]uint16{groupIDs["p256"]}, ch.groups...)
	ch.keyShares = append([]keyShare{{group: groupIDs["p256"], data: p256.PublicKey().Bytes()}}, ch.keyShares...)
	ch.sigAlgs = append([]uint16{sigIDs["rsa:2048"]}, ch.sigAlgs...)
	offer := ch.marshal()
	// The client's transcript must cover the hello actually sent.
	cli.ks = newKeySchedule()
	cli.ks.addMessage(offer)
	cli.ch1Msg = offer

	flushes, err := srv.Respond([]Record{{Type: RecordHandshake, Payload: offer}})
	if err != nil {
		t.Fatalf("server refused a hello offering its group and scheme second: %v", err)
	}
	sh, err := parseServerHello(body(flushes[0].Records[0].Payload))
	if err != nil || sh.group != groupIDs["x25519"] {
		t.Fatalf("ServerHello group %#04x (%v), want x25519", sh.group, err)
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
	if err := srv.Finish(final); err != nil {
		t.Fatal(err)
	}
	if !cli.Done() || !srv.Done() {
		t.Error("handshake did not complete")
	}
}

// Each parser rejects every truncation of an honest message and the same
// message with one byte appended: every length prefix is checked, and so
// is the Empty() at its end. Each rejection carries decode_error.
func TestParsersRejectTruncationAndTrailingBytes(t *testing.T) {
	t.Parallel()
	tr := honestTranscript(t, "x25519", "ed25519")
	certs, err := parseCertificate(body(tr.certificate))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		msg   []byte
		parse func([]byte) error
		alert uint8
	}{
		{"ClientHello", body(tr.clientHello), func(b []byte) error { _, err := parseClientHello(b); return err }, AlertDecodeError},
		{"ServerHello", body(tr.serverHello), func(b []byte) error { _, err := parseServerHello(b); return err }, AlertDecodeError},
		{"Certificate", body(tr.certificate), func(b []byte) error { _, err := parseCertificate(b); return err }, AlertDecodeError},
		{"CertificateVerify", body(tr.certVerify), func(b []byte) error { _, _, err := parseCertVerify(b); return err }, AlertDecodeError},
		{"NewSessionTicket", body(tr.ticket), func(b []byte) error { _, _, err := parseNewSessionTicket(b); return err }, AlertDecodeError},
		{"ticket state", tr.ticketState, func(b []byte) error { _, _, err := parseTicketState(b); return err }, AlertDecodeError},
		// pki errors name no alert; the client answers them with
		// bad_certificate where it calls pki.Unmarshal.
		{"pki certificate", certs[0], func(b []byte) error { _, err := pki.Unmarshal(b); return err }, AlertInternalError},
		{"alert", []byte{2, AlertDecryptError}, func(b []byte) error {
			var remote *AlertError
			if err := parseAlert(Record{Type: RecordAlert, Payload: b}); !errors.As(err, &remote) {
				return err
			}
			return nil
		}, AlertDecodeError},
	} {
		rejected := func(b []byte) bool {
			err := tc.parse(b)
			if err != nil && alertFor(err) != tc.alert {
				t.Errorf("%s: %d-byte input rejected with alert %d, want %d (%v)", tc.name, len(b), alertFor(err), tc.alert, err)
			}
			return err != nil
		}
		if err := tc.parse(tc.msg); err != nil {
			t.Errorf("%s: honest message rejected: %v", tc.name, err)
			continue
		}
		if !rejected(append(bytes.Clone(tc.msg), 0)) {
			t.Errorf("%s: accepted with a trailing byte", tc.name)
		}
		for cut := 0; cut < len(tc.msg); cut++ {
			if !rejected(tc.msg[:cut]) {
				t.Errorf("%s: accepted truncated to %d of %d bytes", tc.name, cut, len(tc.msg))
				break
			}
		}
	}
}
