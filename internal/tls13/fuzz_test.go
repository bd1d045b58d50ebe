package tls13

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Parser robustness: every wire parser must survive arbitrary and truncated
// inputs without panicking — the paper's black-box setup points these
// parsers at whatever the network delivers.

func mustNotPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	f()
}

func TestParsersSurviveGarbage(t *testing.T) {
	t.Parallel()
	check := func(data []byte) bool {
		mustNotPanic(t, "ParseRecord", func() { ParseRecord(data) })
		mustNotPanic(t, "parseHandshakeMsg", func() { parseHandshakeMsg(data) })
		mustNotPanic(t, "parseClientHello", func() { parseClientHello(data) })
		mustNotPanic(t, "parseServerHello", func() { parseServerHello(data) })
		mustNotPanic(t, "parseCertificate", func() { parseCertificate(data) })
		mustNotPanic(t, "parseCertVerify", func() { parseCertVerify(data) })
		mustNotPanic(t, "parseNewSessionTicket", func() { parseNewSessionTicket(data) })
		mustNotPanic(t, "parseTicketState", func() { parseTicketState(data) })
		mustNotPanic(t, "parseAlert", func() { parseAlert(Record{Type: RecordAlert, Payload: data}) })
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Truncations of a *valid* ClientHello must all be rejected cleanly.
func TestClientHelloTruncations(t *testing.T) {
	t.Parallel()
	ch := &clientHello{serverName: "server.example", groups: []uint16{0x001d}, sigAlgs: []uint16{0x0805},
		keyShares: []keyShare{{group: 0x001d, data: make([]byte, 32)}}}
	msg := ch.marshal()
	_, body, _, ok := parseHandshakeMsg(msg)
	if !ok {
		t.Fatal("ClientHello header unparseable")
	}
	if _, err := parseClientHello(body); err != nil {
		t.Fatalf("valid CH rejected: %v", err)
	}
	for cut := 0; cut < len(body); cut += 7 {
		mustNotPanic(t, "parseClientHello/truncated", func() {
			parseClientHello(body[:cut])
		})
	}
	// Bit flips in length fields must never panic either.
	for pos := 0; pos < len(body); pos += 3 {
		mutated := append([]byte{}, body...)
		mutated[pos] ^= 0xFF
		mustNotPanic(t, "parseClientHello/mutated", func() {
			parseClientHello(mutated)
		})
	}
}

// Record-layer decryption must reject (not panic on) every corruption of a
// valid protected record.
func TestHalfConnOpenRobust(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sender.seal(RecordHandshake, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(rec.Payload); pos++ {
		receiver, err := newHalfConn(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		bad := Record{Type: rec.Type, Payload: append([]byte{}, rec.Payload...)}
		bad.Payload[pos] ^= 1
		if _, _, err := receiver.open(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
	// Truncated ciphertexts as well.
	for cut := 0; cut < len(rec.Payload); cut += 5 {
		receiver, _ := newHalfConn(key, iv)
		mustNotPanic(t, "open/truncated", func() {
			receiver.open(Record{Type: rec.Type, Payload: rec.Payload[:cut]})
		})
	}
}

// Native fuzz targets. `go test -fuzz=FuzzX -fuzztime=5s ./internal/tls13`
// explores beyond the quick.Check coverage above; without -fuzz the seed
// corpus below runs as a regression test on every `go test`. Besides never
// panicking, each target's oracle is that a rejection names its alert.

// requireNamedAlert fails the input when its rejection would go out as
// internal_error or as an alert this stack does not define: a fault in peer
// bytes names its alert where it is detected.
func requireNamedAlert(t *testing.T, err error) {
	t.Helper()
	if desc := alertFor(err); desc == AlertInternalError || alertNames[desc] == "" {
		t.Fatalf("rejection carries alert %d: %v", desc, err)
	}
}

// fuzzSeedClientHello builds a valid ClientHello body for the seed corpus.
func fuzzSeedClientHello() []byte {
	ch := &clientHello{serverName: "server.example", groups: []uint16{0x001d}, sigAlgs: []uint16{0x0805},
		keyShares: []keyShare{{group: 0x001d, data: make([]byte, 32)}}}
	_, body, _, _ := parseHandshakeMsg(ch.marshal())
	return body
}

// fuzzSeedServerHello builds a valid ServerHello body for the seed corpus.
func fuzzSeedServerHello() []byte {
	sh := &serverHello{group: 0x001d, keyShare: make([]byte, 32)}
	_, body, _, _ := parseHandshakeMsg(sh.marshal())
	return body
}

func FuzzClientHelloParse(f *testing.F) {
	valid := fuzzSeedClientHello()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := parseClientHello(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		// Accepted hellos must round-trip through marshal and re-parse:
		// the wire form of what we understood must itself be parseable.
		_, body, rest, ok := parseHandshakeMsg(ch.marshal())
		if !ok || len(rest) != 0 {
			t.Fatal("re-marshaled ClientHello unparseable")
		}
		if _, err := parseClientHello(body); err != nil {
			t.Fatalf("re-marshaled ClientHello rejected: %v", err)
		}
	})
}

func FuzzServerHelloParse(f *testing.F) {
	valid := fuzzSeedServerHello()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:35])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sh, err := parseServerHello(data)
		if err != nil {
			requireNamedAlert(t, err)
			return
		}
		_, body, rest, ok := parseHandshakeMsg(sh.marshal())
		if !ok || len(rest) != 0 {
			t.Fatal("re-marshaled ServerHello unparseable")
		}
		if _, err := parseServerHello(body); err != nil {
			t.Fatalf("re-marshaled ServerHello rejected: %v", err)
		}
	})
}

// FuzzRecordDeprotect drives the record-layer open() with attacker-chosen
// ciphertext. It must never panic, and must never accept a payload that the
// paired sender did not seal (any accepted open here is a forgery, since
// the fuzzer does not know the traffic key).
func FuzzRecordDeprotect(f *testing.F) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, err := newHalfConn(key, iv)
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := sender.seal(RecordHandshake, []byte("finished message payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed.Payload)
	f.Add(sealed.Payload[:len(sealed.Payload)/2])
	f.Add([]byte{})
	f.Add(make([]byte, 17)) // tag-sized garbage
	f.Fuzz(func(t *testing.T, payload []byte) {
		receiver, err := newHalfConn(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		// Sequence 0 re-seal of the seed payload is the only valid input;
		// everything else must error.
		innerType, plain, err := receiver.open(Record{Type: RecordApplicationData, Payload: payload})
		if err != nil {
			requireNamedAlert(t, err)
		} else if !bytes.Equal(payload, sealed.Payload) {
			t.Fatalf("forged record accepted: type %d, %q", innerType, plain)
		}
	})
}

// An all-zero inner plaintext (padding only) must be rejected, not sliced
// out of bounds.
func TestAllZeroInnerPlaintext(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, _ := newHalfConn(key, iv)
	rec, err := sender.seal(0, nil) // inner type 0 + empty = all-zero inner
	if err != nil {
		t.Fatal(err)
	}
	receiver, _ := newHalfConn(key, iv)
	if _, _, err := receiver.open(rec); err == nil {
		t.Error("all-zero inner plaintext accepted")
	}
}
