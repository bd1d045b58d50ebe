package tls13

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"

	"pqtls/internal/wire"
)

// PSK session resumption (RFC 8446 §2.2, §4.6.1): after a full handshake
// the server issues a NewSessionTicket; a later connection presents it in a
// pre_shared_key extension and skips the Certificate and CertificateVerify
// flights entirely. For post-quantum TLS this is the mechanism that
// amortizes the (large, slow) PQ authentication: a resumed handshake's cost
// is key agreement only. See harness.RunResumptionComparison.

const (
	typeNewSessionTicket uint8  = 4
	extPreSharedKey      uint16 = 41
	extPSKModes          uint16 = 45
)

// Session is the client-side resumption state from a NewSessionTicket.
type Session struct {
	Ticket []byte // opaque server-encrypted state
	PSK    []byte // resumption pre-shared key
	// KEMName records the original suite; resumption reuses it.
	KEMName string
}

// ticketKeySize is the AES-128 key protecting server ticket state.
const ticketKeySize = 16

// SessionTicket builds the post-handshake NewSessionTicket flight (one
// encrypted record under the server application traffic key). The ticket
// seals the PSK in Config.Tickets, so any server whose store holds the same
// key can resume the session.
func (s *Server) SessionTicket() ([]Record, *Session, error) {
	if !s.done {
		return nil, nil, errors.New("tls13: SessionTicket before handshake completion")
	}
	defer s.cfg.phase(PhaseTicketIssue)()
	store := s.cfg.Tickets
	if store == nil {
		return nil, nil, errors.New("tls13: server has no ticket store configured")
	}
	// resumption_master_secret -> PSK via the ticket nonce.
	var nonce [8]byte
	if _, err := io.ReadFull(rand.Reader, nonce[:]); err != nil {
		return nil, nil, err
	}
	resMaster := deriveSecret(s.ks.masterSecret[:], "res master", s.ks.transcriptHash())
	psk := hkdfExpandLabel(resMaster, "resumption", nonce[:], sha256.Size)

	ticket, err := store.Seal(psk, s.cfg.KEMName)
	if err != nil {
		return nil, nil, err
	}
	msg := marshalNewSessionTicket(nonce[:], ticket)

	// Post-handshake messages travel under the application traffic keys,
	// one sequence number per ticket issued on this connection.
	if s.ticketHC == nil {
		appKey, appIV := s.ks.trafficKeys(s.ks.serverAppTraffic[:])
		if s.ticketHC, err = newHalfConn(appKey, appIV); err != nil {
			return nil, nil, err
		}
	}
	rec, err := s.ticketHC.seal(RecordHandshake, msg)
	if err != nil {
		return nil, nil, err
	}
	// The payload aliases the seal scratch the next ticket reuses.
	rec.Payload = bytes.Clone(rec.Payload)
	return []Record{rec}, &Session{Ticket: ticket, PSK: psk, KEMName: s.cfg.KEMName}, nil
}

// ProcessTicket consumes a NewSessionTicket flight on the client and
// returns the session usable for resumption.
func (c *Client) ProcessTicket(records []Record) (*Session, error) {
	if !c.done {
		return nil, errors.New("tls13: ProcessTicket before handshake completion")
	}
	defer c.cfg.phase(PhaseTicketProcess)()
	if c.ticketHC == nil {
		appKey, appIV := c.ks.trafficKeys(c.ks.serverAppTraffic[:])
		var err error
		if c.ticketHC, err = newHalfConn(appKey, appIV); err != nil {
			return nil, err
		}
	}
	for _, rec := range records {
		innerType, plaintext, err := c.ticketHC.open(rec)
		if err != nil {
			return nil, err
		}
		if innerType != RecordHandshake {
			continue
		}
		typ, body, _, ok := parseHandshakeMsg(plaintext)
		if !ok {
			return nil, alertf(AlertDecodeError, "tls13: truncated handshake message")
		}
		if typ != typeNewSessionTicket {
			continue
		}
		nonce, ticket, err := parseNewSessionTicket(body)
		if err != nil {
			return nil, err
		}
		resMaster := deriveSecret(c.ks.masterSecret[:], "res master", c.ks.transcriptHash())
		psk := hkdfExpandLabel(resMaster, "resumption", nonce, sha256.Size)
		// ticket aliases the buffer the next open on c.ticketHC reuses.
		return &Session{Ticket: bytes.Clone(ticket), PSK: psk, KEMName: c.cfg.KEMName}, nil
	}
	return nil, errors.New("tls13: no NewSessionTicket in flight")
}

// marshalNewSessionTicket builds a NewSessionTicket (RFC 8446 §4.6.1) with
// a fixed lifetime and no extensions.
func marshalNewSessionTicket(nonce, ticket []byte) []byte {
	return handshakeMsg(typeNewSessionTicket, 11+len(nonce)+len(ticket), func(b *wire.Builder) {
		b.AddUint32(7200) // ticket_lifetime
		b.AddUint32(0)    // ticket_age_add (age checks are out of scope)
		b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(nonce) })
		b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes(ticket) })
		b.AddUint16LengthPrefixed(func(*wire.Builder) {}) // no extensions
	})
}

// parseNewSessionTicket returns the ticket_nonce and the ticket of a
// NewSessionTicket body (RFC 8446 §4.6.1). Both alias body.
func parseNewSessionTicket(body []byte) (nonce, ticket []byte, err error) {
	s := wire.String(body)
	var n, t, exts wire.String
	if !s.Skip(8) || // ticket_lifetime, ticket_age_add
		!s.ReadUint8LengthPrefixed(&n) || !s.ReadUint16LengthPrefixed(&t) ||
		!s.ReadUint16LengthPrefixed(&exts) || !s.Empty() {
		return nil, nil, alertf(AlertDecodeError, "tls13: malformed NewSessionTicket")
	}
	return n, t, nil
}

// binderKey derives the PSK binder key from the resumption PSK.
func binderKey(psk []byte) []byte {
	early := hkdfExtract(nil, psk)
	return deriveSecret(early, "res binder", emptyHash())
}

// computeBinder is the HMAC over the transcript through the partial
// ClientHello: prior is what precedes it (nil, or message_hash(CH1) ‖
// HelloRetryRequest after a retry).
func computeBinder(psk, prior, partialCH []byte) []byte {
	h := sha256.New()
	h.Write(prior)
	h.Write(partialCH)
	return finishedMAC(binderKey(psk), h.Sum(nil))
}

// binderSuffixLen is the wire size of the binders list we emit: 2-byte list
// length + 1-byte binder length + 32-byte HMAC.
const binderSuffixLen = 2 + 1 + sha256.Size
