package tls13

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/hex"
	"net"
	"testing"

	"pqtls/internal/pki"
	"pqtls/internal/sig"
	"pqtls/internal/wire"
)

// Each fault a peer can put on the wire is answered with the alert RFC 8446
// names for it. Every case runs one socket driver (ServerHandshake or
// ClientHandshake) over net.Pipe against a scripted peer and checks the
// exact alert record the driver sends back.
func TestAlertOnTheWire(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{4})
	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	serve := func(conn net.Conn) error { _, err := ServerHandshake(conn, srvCfg); return err }
	dial := func(cfg *Config) func(net.Conn) error {
		return func(conn net.Conn) error { _, err := ClientHandshake(conn, cfg); return err }
	}
	// send is a client peer that writes records without reading.
	send := func(recs ...Record) func(*testing.T, net.Conn) []Record {
		return func(*testing.T, net.Conn) []Record { return recs }
	}
	// answer is a server peer: it reads the ClientHello and replies with
	// what reply builds from it.
	answer := func(reply func(t *testing.T, hello []Record, ch *clientHello) []Record) func(*testing.T, net.Conn) []Record {
		return func(t *testing.T, conn net.Conn) []Record {
			hello, err := readHello(conn)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := parseClientHello(body(hello[0].Payload))
			if err != nil {
				t.Fatal(err)
			}
			return reply(t, hello, ch)
		}
	}
	// honest is the in-tree server's reply, each protected handshake
	// message passed through edit and sealed again.
	honest := func(edit func(msg []byte) []byte) func(*testing.T, []Record, *clientHello) []Record {
		return func(t *testing.T, hello []Record, _ *clientHello) []Record {
			return serverFlight(t, srvCfg, hello, edit)
		}
	}

	otherRoot, _, err := pki.SelfSigned("Other CA", sig.MustByName("rsa:2048"), nil)
	if err != nil {
		t.Fatal(err)
	}
	untrusting := *cliCfg
	untrusting.Roots = pki.NewPool(otherRoot)
	retrying := *cliCfg
	retrying.SupportedKEMs = []string{"kyber512", "p256"}
	otherSig := *cliCfg
	otherSig.SigName = "ecdsa-p256"
	wrongPSK := *cliCfg
	wrongPSK.Session = &Session{Ticket: sess.Ticket, PSK: make([]byte, len(sess.PSK)), KEMName: sess.KEMName}
	tls12Only := clientHelloMsg(t, cliCfg)
	if i := bytes.Index(tls12Only, []byte{0, 43, 0, 3, 2, 3, 4}); i < 0 {
		t.Fatal("no supported_versions in the ClientHello")
	} else {
		tls12Only[i+6] = 3 // offer TLS 1.2 only
	}
	const big = maxCiphertext + 1

	for _, tc := range []struct {
		name   string
		driver func(net.Conn) error
		peer   func(*testing.T, net.Conn) []Record
		want   string // the alert record, hex
	}{
		// The test plays the client.
		{"3-byte ClientHello body", serve,
			send(Record{Type: RecordHandshake, Payload: []byte{typeClientHello, 0, 0, 3, 3, 3, 0}}),
			"15030300020232"}, // decode_error
		{"application data in place of the ClientHello", serve,
			send(Record{Type: RecordApplicationData, Payload: []byte{1}}),
			"1503030002020a"}, // unexpected_message
		{"record longer than 2^14+256", serve,
			send(Record{Type: RecordHandshake, Payload: make([]byte, big)}),
			"15030300020216"}, // record_overflow
		{"no signature scheme in common", serve,
			send(Record{Type: RecordHandshake, Payload: clientHelloMsg(t, &otherSig)}),
			"15030300020228"}, // handshake_failure
		{"5-byte x25519 key share", serve,
			send(Record{Type: RecordHandshake, Payload: (&clientHello{
				groups: []uint16{groupIDs["x25519"]}, sigAlgs: []uint16{sigIDs["ed25519"]},
				keyShares: []keyShare{{group: groupIDs["x25519"], data: make([]byte, 5)}},
			}).marshal()}),
			"1503030002022f"}, // illegal_parameter
		{"PSK binder under the wrong key", serve,
			send(Record{Type: RecordHandshake, Payload: clientHelloMsg(t, &wrongPSK)}),
			"15030300020233"}, // decrypt_error
		{"ClientHello without TLS 1.3", serve,
			send(Record{Type: RecordHandshake, Payload: tls12Only}),
			"15030300020246"}, // protocol_version

		// The test plays the server.
		{"second HelloRetryRequest", dial(&retrying),
			func(t *testing.T, conn net.Conn) []Record {
				retry := func(ch *clientHello, group string) []Record {
					hrr := &serverHello{sessionID: ch.sessionID, group: groupIDs[group], hrr: true}
					return []Record{{Type: RecordHandshake, Payload: hrr.marshal()}}
				}
				first := answer(func(_ *testing.T, _ []Record, ch *clientHello) []Record { return retry(ch, "kyber512") })(t, conn)
				if err := WriteRecords(conn, first); err != nil {
					t.Fatal(err)
				}
				return answer(func(_ *testing.T, _ []Record, ch *clientHello) []Record { return retry(ch, "p256") })(t, conn)
			},
			"1503030002020a"}, // unexpected_message
		{"corrupted EncryptedExtensions record", dial(cliCfg),
			answer(func(t *testing.T, hello []Record, _ *clientHello) []Record {
				flight := serverFlight(t, srvCfg, hello, nil)
				flight[2].Payload[0] ^= 1
				return flight
			}),
			"15030300020214"}, // bad_record_mac
		{"certificate from an unknown root", dial(&untrusting),
			answer(honest(nil)),
			"1503030002022a"}, // bad_certificate
		{"session id not echoed", dial(cliCfg),
			answer(func(t *testing.T, _ []Record, ch *clientHello) []Record {
				// A share that decapsulates, so only the echo is wrong.
				share, err := ecdh.X25519().GenerateKey(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				sh := &serverHello{sessionID: ch.sessionID, group: groupIDs["x25519"], keyShare: share.PublicKey().Bytes()}
				sh.sessionID[0] ^= 1
				return []Record{{Type: RecordHandshake, Payload: sh.marshal()}}
			}),
			"1503030002022f"}, // illegal_parameter
		{"empty Certificate message", dial(cliCfg),
			answer(honest(func(msg []byte) []byte {
				if msg[0] == typeCertificate {
					return marshalCertificate(nil)
				}
				return msg
			})),
			"15030300020232"}, // decode_error
		{"CertificateVerify signature flipped", dial(cliCfg),
			answer(honest(func(msg []byte) []byte {
				if msg[0] == typeCertificateVerify {
					msg = bytes.Clone(msg)
					msg[len(msg)-1] ^= 1
				}
				return msg
			})),
			"15030300020233"}, // decrypt_error
		{"ServerHello without supported_versions", dial(cliCfg),
			answer(func(_ *testing.T, _ []Record, ch *clientHello) []Record {
				return rawServerHello(ch.sessionID, func(b *wire.Builder) {
					addExtension(b, extKeyShare, func(b *wire.Builder) {
						b.AddUint16(groupIDs["x25519"])
						b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(make([]byte, 32)) })
					})
				})
			}),
			"15030300020246"}, // protocol_version
		{"ServerHello selecting TLS 1.2", dial(cliCfg),
			answer(func(_ *testing.T, _ []Record, ch *clientHello) []Record {
				return rawServerHello(ch.sessionID, func(b *wire.Builder) {
					addExtension(b, extSupportedVersions, func(b *wire.Builder) { b.AddUint16(0x0303) })
				})
			}),
			"1503030002022f"}, // illegal_parameter
		{"ServerHello without key_share", dial(cliCfg),
			answer(func(_ *testing.T, _ []Record, ch *clientHello) []Record {
				return rawServerHello(ch.sessionID, func(b *wire.Builder) {
					addExtension(b, extSupportedVersions, func(b *wire.Builder) { b.AddUint16(tls13Version) })
				})
			}),
			"1503030002026d"}, // missing_extension
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, peerConn := boundaryPipe(t)
			driverErr := make(chan error, 1)
			go func() { driverErr <- tc.driver(conn) }()
			out := tc.peer(t, peerConn)
			// The driver may stop reading before the peer stops writing.
			go WriteRecords(peerConn, out)
			for {
				rec, err := ReadRecord(peerConn)
				if err != nil {
					t.Fatalf("no alert before %v", err)
				}
				if rec.Type == RecordAlert {
					if got := hex.EncodeToString(rec.Marshal()); got != tc.want {
						t.Errorf("alert record %s, want %s", got, tc.want)
					}
					break
				}
			}
			if err := <-driverErr; err == nil {
				t.Error("handshake succeeded")
			}
		})
	}
}

// clientHelloMsg is the ClientHello a client with cfg sends.
func clientHelloMsg(t *testing.T, cfg *Config) []byte {
	t.Helper()
	cli, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	return hello[0].Payload
}

// serverFlight is the in-tree server's whole reply to hello. With edit
// non-nil, each protected handshake message is passed through it and sealed
// again under the same keys.
func serverFlight(t *testing.T, cfg *Config, hello []Record, edit func(msg []byte) []byte) []Record {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flushes, err := srv.Respond(hello)
	if err != nil {
		t.Fatal(err)
	}
	key, iv := srv.ks.trafficKeys(srv.ks.serverHSTraffic[:])
	opener, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for _, f := range flushes {
		for _, rec := range f.Records {
			if edit != nil && rec.Type == RecordApplicationData {
				_, msg, err := opener.open(rec)
				if err != nil {
					t.Fatal(err)
				}
				if rec, err = sealer.seal(RecordHandshake, edit(msg)); err != nil {
					t.Fatal(err)
				}
				rec.Payload = bytes.Clone(rec.Payload)
			}
			out = append(out, rec)
		}
	}
	return out
}

// rawServerHello is a ServerHello echoing sessionID whose extensions are
// only what exts writes.
func rawServerHello(sessionID [32]byte, exts func(*wire.Builder)) []Record {
	msg := handshakeMsg(typeServerHello, 128, func(b *wire.Builder) {
		b.AddUint16(legacyVersion)
		b.AddBytes(make([]byte, 32))
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(sessionID[:]) })
		b.AddUint16(cipherAES128GCMSHA256)
		b.AddUint8(0)
		b.AddUint16LengthPrefixed(exts)
	})
	return []Record{{Type: RecordHandshake, Payload: msg}}
}
