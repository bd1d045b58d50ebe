package tls13

import "pqtls/internal/wire"

// Handshake message types.
const (
	typeClientHello       uint8 = 1
	typeServerHello       uint8 = 2
	typeEncryptedExts     uint8 = 8
	typeCertificate       uint8 = 11
	typeCertificateVerify uint8 = 15
	typeFinished          uint8 = 20
	typeMessageHash       uint8 = 254 // synthetic, RFC 8446 §4.4.1
)

// Extension codepoints.
const (
	extServerName        uint16 = 0
	extSupportedGroups   uint16 = 10
	extSignatureAlgs     uint16 = 13
	extSupportedVersions uint16 = 43
	extKeyShare          uint16 = 51
)

const cipherAES128GCMSHA256 uint16 = 0x1301

// tls13Version is the supported_versions value for TLS 1.3.
const tls13Version uint16 = 0x0304

// errNotOnRecordBoundary answers a handshake message that is followed by
// more handshake bytes in the record that carries it, where a key change
// must come next (RFC 8446 §5.1): the ClientHello, the ServerHello and the
// client Finished.
var errNotOnRecordBoundary = alertf(AlertUnexpectedMessage, "tls13: handshake message does not end on a record boundary")

// handshakeMsg builds one handshake message: the type, a 24-bit length and
// the body f writes. sizeHint is the expected body size.
func handshakeMsg(typ uint8, sizeHint int, f func(*wire.Builder)) []byte {
	b := wire.NewBuilder(make([]byte, 0, 4+sizeHint))
	b.AddUint8(typ)
	b.AddUint24LengthPrefixed(f)
	return b.Bytes()
}

// parseHandshakeMsg splits one handshake message off buf; ok is false
// while buf holds less than a whole message.
func parseHandshakeMsg(buf []byte) (typ uint8, body, rest []byte, ok bool) {
	s := wire.String(buf)
	var b wire.String
	if !s.ReadUint8(&typ) || !s.ReadUint24LengthPrefixed(&b) {
		return 0, nil, buf, false
	}
	return typ, b, s, true
}

// addExtension writes one extension: its type and the u16-prefixed data f
// writes.
func addExtension(b *wire.Builder, typ uint16, f func(*wire.Builder)) {
	b.AddUint16(typ)
	b.AddUint16LengthPrefixed(f)
}

// keyShare is one KeyShareEntry (RFC 8446 §4.2.8).
type keyShare struct {
	group uint16
	data  []byte
}

// clientHello is the subset of ClientHello this stack negotiates.
type clientHello struct {
	random     [32]byte
	sessionID  [32]byte
	serverName string
	groups     []uint16   // supported_groups, in preference order
	sigAlgs    []uint16   // signature_algorithms, in preference order
	keyShares  []keyShare // key_share entries, in offered order

	// pre_shared_key, always the last extension (with
	// psk_key_exchange_modes before it). pskIdentity is the first identity
	// (the ticket) and pskBinder the first binder. bindersOff is the body
	// offset of the binders list, where the partial transcript the binder
	// authenticates ends (RFC 8446 §4.2.11.2).
	psk         bool
	pskIdentity []byte
	pskBinder   []byte
	bindersOff  int
}

// marshal emits the extensions in a fixed order: server_name,
// supported_groups, signature_algorithms, supported_versions, key_share,
// then psk_key_exchange_modes and pre_shared_key when a ticket is offered.
func (ch *clientHello) marshal() []byte {
	size := 128 + len(ch.serverName) + 2*len(ch.groups) + 2*len(ch.sigAlgs) + len(ch.pskIdentity) + len(ch.pskBinder)
	for _, ks := range ch.keyShares {
		size += 4 + len(ks.data)
	}
	return handshakeMsg(typeClientHello, size, func(b *wire.Builder) {
		b.AddUint16(legacyVersion)
		b.AddBytes(ch.random[:])
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(ch.sessionID[:]) })
		b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddUint16(cipherAES128GCMSHA256) })
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddUint8(0) }) // null compression
		b.AddUint16LengthPrefixed(func(b *wire.Builder) {
			addExtension(b, extServerName, func(b *wire.Builder) {
				b.AddUint16LengthPrefixed(func(b *wire.Builder) {
					b.AddUint8(0) // host_name
					b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes([]byte(ch.serverName)) })
				})
			})
			addExtension(b, extSupportedGroups, func(b *wire.Builder) { addUint16List(b, ch.groups) })
			addExtension(b, extSignatureAlgs, func(b *wire.Builder) { addUint16List(b, ch.sigAlgs) })
			addExtension(b, extSupportedVersions, func(b *wire.Builder) {
				b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddUint16(tls13Version) })
			})
			addExtension(b, extKeyShare, func(b *wire.Builder) {
				b.AddUint16LengthPrefixed(func(b *wire.Builder) {
					for _, ks := range ch.keyShares {
						b.AddUint16(ks.group)
						b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(ks.data) })
					}
				})
			})
			if !ch.psk {
				return
			}
			addExtension(b, extPSKModes, func(b *wire.Builder) {
				b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddUint8(1) }) // psk_dhe_ke
			})
			addExtension(b, extPreSharedKey, func(b *wire.Builder) {
				b.AddUint16LengthPrefixed(func(b *wire.Builder) {
					b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(ch.pskIdentity) })
					b.AddUint32(0) // obfuscated_ticket_age
				})
				b.AddUint16LengthPrefixed(func(b *wire.Builder) {
					b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(ch.pskBinder) })
				})
			})
		})
	})
}

func addUint16List(b *wire.Builder, list []uint16) {
	b.AddUint16LengthPrefixed(func(b *wire.Builder) {
		for _, v := range list {
			b.AddUint16(v)
		}
	})
}

// readUint16List reads a u16-prefixed list of uint16 values. An empty list
// offers nothing, so negotiation fails on it later.
func readUint16List(s *wire.String) ([]uint16, bool) {
	var list wire.String
	if !s.ReadUint16LengthPrefixed(&list) || len(list)%2 != 0 {
		return nil, false
	}
	out := make([]uint16, len(list)/2)
	for i := range out {
		list.ReadUint16(&out[i])
	}
	return out, true
}

func parseClientHello(body []byte) (*clientHello, error) {
	ch := &clientHello{}
	s := wire.String(body)
	var sessionID, suites, compression, exts wire.String
	if !s.Skip(2) || !s.CopyBytes(ch.random[:]) || !s.ReadUint8LengthPrefixed(&sessionID) ||
		!s.ReadUint16LengthPrefixed(&suites) || !s.ReadUint8LengthPrefixed(&compression) ||
		!s.ReadUint16LengthPrefixed(&exts) || !s.Empty() {
		return nil, alertf(AlertDecodeError, "tls13: malformed ClientHello")
	}
	if !sessionID.CopyBytes(ch.sessionID[:]) || !sessionID.Empty() {
		return nil, alertf(AlertIllegalParameter, "tls13: %d-byte session id, want 32", len(sessionID))
	}
	tls13Offered := false
	for !exts.Empty() {
		if ch.psk {
			return nil, alertf(AlertIllegalParameter, "tls13: extension after pre_shared_key")
		}
		var typ uint16
		var ext wire.String
		if !exts.ReadUint16(&typ) || !exts.ReadUint16LengthPrefixed(&ext) {
			return nil, alertf(AlertDecodeError, "tls13: truncated extension")
		}
		ok := true
		switch typ {
		case extServerName:
			var list, name wire.String
			var nameType uint8
			ok = ext.ReadUint16LengthPrefixed(&list) && list.ReadUint8(&nameType) && nameType == 0 &&
				list.ReadUint16LengthPrefixed(&name)
			ch.serverName = string(name)
		case extSupportedGroups:
			ch.groups, ok = readUint16List(&ext)
		case extSignatureAlgs:
			ch.sigAlgs, ok = readUint16List(&ext)
		case extKeyShare:
			var list wire.String
			ok = ext.ReadUint16LengthPrefixed(&list)
			for ok && !list.Empty() {
				var ks keyShare
				var data wire.String
				ok = list.ReadUint16(&ks.group) && list.ReadUint16LengthPrefixed(&data)
				ks.data = data
				ch.keyShares = append(ch.keyShares, ks)
			}
		case extSupportedVersions:
			var list wire.String
			ok = ext.ReadUint8LengthPrefixed(&list) && len(list)%2 == 0
			for ok && !list.Empty() {
				var v uint16
				list.ReadUint16(&v)
				tls13Offered = tls13Offered || v == tls13Version
			}
		case extPreSharedKey:
			var ids, identity, binders, binder wire.String
			var age uint32
			ok = ext.ReadUint16LengthPrefixed(&ids) && ids.ReadUint16LengthPrefixed(&identity) && ids.ReadUint32(&age)
			ch.bindersOff = len(body) - len(ext)
			ok = ok && ext.ReadUint16LengthPrefixed(&binders) && binders.ReadUint8LengthPrefixed(&binder)
			ch.psk, ch.pskIdentity, ch.pskBinder = true, identity, binder
		default:
			ext = nil // ignored
		}
		if !ok || !ext.Empty() {
			return nil, alertf(AlertDecodeError, "tls13: malformed extension %d", typ)
		}
	}
	if !tls13Offered {
		return nil, alertf(AlertProtocolVersion, "tls13: client does not offer TLS 1.3")
	}
	return ch, nil
}

// shareFor returns the key share the client offered for group.
func (ch *clientHello) shareFor(group uint16) ([]byte, bool) {
	for _, ks := range ch.keyShares {
		if ks.group == group {
			return ks.data, true
		}
	}
	return nil, false
}

// serverHello mirrors clientHello for the server's response. A
// HelloRetryRequest is a serverHello with hrr set: its random is hrrRandom
// and its key_share names only the selected group.
type serverHello struct {
	random    [32]byte
	sessionID [32]byte
	group     uint16
	keyShare  []byte // KEM ciphertext / server ECDH share
	hrr       bool
}

func (sh *serverHello) marshal() []byte {
	return handshakeMsg(typeServerHello, 96+len(sh.keyShare), func(b *wire.Builder) {
		b.AddUint16(legacyVersion)
		if sh.hrr {
			b.AddBytes(hrrRandom[:])
		} else {
			b.AddBytes(sh.random[:])
		}
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(sh.sessionID[:]) })
		b.AddUint16(cipherAES128GCMSHA256)
		b.AddUint8(0) // compression
		b.AddUint16LengthPrefixed(func(b *wire.Builder) {
			addExtension(b, extSupportedVersions, func(b *wire.Builder) { b.AddUint16(tls13Version) })
			addExtension(b, extKeyShare, func(b *wire.Builder) {
				b.AddUint16(sh.group)
				if !sh.hrr {
					b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(sh.keyShare) })
				}
			})
		})
	})
}

func parseServerHello(body []byte) (*serverHello, error) {
	sh := &serverHello{}
	s := wire.String(body)
	var sessionID, exts wire.String
	var suite uint16
	var compression uint8
	if !s.Skip(2) || !s.CopyBytes(sh.random[:]) || !s.ReadUint8LengthPrefixed(&sessionID) ||
		!s.ReadUint16(&suite) || !s.ReadUint8(&compression) || !s.ReadUint16LengthPrefixed(&exts) || !s.Empty() {
		return nil, alertf(AlertDecodeError, "tls13: malformed ServerHello")
	}
	// The echo of the client's 32-byte legacy_session_id (RFC 8446 §4.1.3).
	if !sessionID.CopyBytes(sh.sessionID[:]) || !sessionID.Empty() {
		return nil, alertf(AlertIllegalParameter, "tls13: %d-byte session id echo, want 32", len(sessionID))
	}
	if suite != cipherAES128GCMSHA256 {
		return nil, alertf(AlertIllegalParameter, "tls13: server chose unsupported suite %#04x", suite)
	}
	sh.hrr = sh.random == hrrRandom
	var version uint16
	hasShare := false
	for !exts.Empty() {
		var typ uint16
		var ext wire.String
		if !exts.ReadUint16(&typ) || !exts.ReadUint16LengthPrefixed(&ext) {
			return nil, alertf(AlertDecodeError, "tls13: truncated extension")
		}
		ok := true
		switch typ {
		case extSupportedVersions:
			ok = ext.ReadUint16(&version)
		case extKeyShare:
			var share wire.String
			ok = ext.ReadUint16(&sh.group) && (sh.hrr || ext.ReadUint16LengthPrefixed(&share))
			sh.keyShare, hasShare = share, true
		default:
			ext = nil // ignored
		}
		if !ok || !ext.Empty() {
			return nil, alertf(AlertDecodeError, "tls13: malformed extension %d", typ)
		}
	}
	switch { // RFC 8446 §4.2.1
	case version == 0:
		return nil, alertf(AlertProtocolVersion, "tls13: ServerHello without supported_versions")
	case version != tls13Version:
		return nil, alertf(AlertIllegalParameter, "tls13: server selected version %#04x", version)
	}
	if !hasShare {
		return nil, alertf(AlertMissingExtension, "tls13: ServerHello without key_share")
	}
	return sh, nil
}

// marshalCertificate builds the Certificate message from raw cert encodings.
func marshalCertificate(certs [][]byte) []byte {
	size := 4
	for _, c := range certs {
		size += 5 + len(c)
	}
	return handshakeMsg(typeCertificate, size, func(b *wire.Builder) {
		b.AddUint8(0) // empty certificate_request_context
		b.AddUint24LengthPrefixed(func(b *wire.Builder) {
			for _, c := range certs {
				b.AddUint24LengthPrefixed(func(b *wire.Builder) { b.AddBytes(c) })
				b.AddUint16(0) // no per-certificate extensions
			}
		})
	})
}

func parseCertificate(body []byte) ([][]byte, error) {
	s := wire.String(body)
	var context, list wire.String
	if !s.ReadUint8LengthPrefixed(&context) || !s.ReadUint24LengthPrefixed(&list) || !s.Empty() {
		return nil, alertf(AlertDecodeError, "tls13: malformed certificate message")
	}
	var certs [][]byte
	for !list.Empty() {
		var cert, exts wire.String
		if !list.ReadUint24LengthPrefixed(&cert) || !list.ReadUint16LengthPrefixed(&exts) {
			return nil, alertf(AlertDecodeError, "tls13: truncated certificate entry")
		}
		certs = append(certs, cert)
	}
	if len(certs) == 0 { // RFC 8446 §4.4.2.4
		return nil, alertf(AlertDecodeError, "tls13: empty certificate list")
	}
	return certs, nil
}

// marshalCertVerify builds the CertificateVerify message.
func marshalCertVerify(sigAlg uint16, signature []byte) []byte {
	return handshakeMsg(typeCertificateVerify, 4+len(signature), func(b *wire.Builder) {
		b.AddUint16(sigAlg)
		b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(signature) })
	})
}

func parseCertVerify(body []byte) (sigAlg uint16, signature []byte, err error) {
	s := wire.String(body)
	var sig wire.String
	if !s.ReadUint16(&sigAlg) || !s.ReadUint16LengthPrefixed(&sig) || !s.Empty() {
		return 0, nil, alertf(AlertDecodeError, "tls13: malformed CertificateVerify")
	}
	return sigAlg, sig, nil
}

// certVerifyContext is the server context string of RFC 8446 §4.4.3.
const certVerifyContext = "TLS 1.3, server CertificateVerify"

// certVerifyContent builds the signed content of CertificateVerify
// (RFC 8446 §4.4.3, server variant): 64 spaces, the context string, a zero
// byte and the transcript hash.
func certVerifyContent(transcriptHash []byte) []byte {
	out := make([]byte, 64, 64+len(certVerifyContext)+1+len(transcriptHash))
	for i := range out {
		out[i] = 0x20
	}
	out = append(out, certVerifyContext...)
	out = append(out, 0)
	return append(out, transcriptHash...)
}
