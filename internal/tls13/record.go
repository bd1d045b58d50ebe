// Package tls13 implements an RFC 8446-faithful TLS 1.3 handshake with
// pluggable (classical, post-quantum, and hybrid) key agreements and
// signature algorithms — the substrate on which the paper's measurements
// run. The state machines are sans-IO: they consume and produce records, so
// the same code runs over real sockets (Pipe) and inside the discrete-event
// network simulation (internal/netsim).
package tls13

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"pqtls/internal/wire"
)

// TLS record content types.
const (
	RecordChangeCipherSpec uint8 = 20
	RecordAlert            uint8 = 21
	RecordHandshake        uint8 = 22
	RecordApplicationData  uint8 = 23
)

// legacyVersion is the TLS 1.2 version number carried by TLS 1.3 records.
const legacyVersion = 0x0303

// maxRecordPayload is the RFC 8446 plaintext limit per record.
const maxRecordPayload = 16384

// Record is one TLS record (content type + payload, without the 5-byte
// header).
type Record struct {
	Type    uint8
	Payload []byte
}

// WireSize is the record's size on the wire including the header.
func (r Record) WireSize() int { return 5 + len(r.Payload) }

// Marshal renders the record with its header.
func (r Record) Marshal() []byte {
	out := make([]byte, 5+len(r.Payload))
	out[0] = r.Type
	binary.BigEndian.PutUint16(out[1:], legacyVersion)
	binary.BigEndian.PutUint16(out[3:], uint16(len(r.Payload)))
	copy(out[5:], r.Payload)
	return out
}

// WireSize returns the total wire size of a set of records.
func WireSize(records []Record) int {
	n := 0
	for _, r := range records {
		n += r.WireSize()
	}
	return n
}

// ParseRecord reads one record from buf, returning the remainder.
func ParseRecord(buf []byte) (Record, []byte, error) {
	s := wire.String(buf)
	var typ uint8
	var payload wire.String
	if !s.ReadUint8(&typ) || !s.Skip(2) /* legacy_record_version */ || !s.ReadUint16LengthPrefixed(&payload) {
		return Record{}, buf, errShortRecord
	}
	return Record{Type: typ, Payload: bytes.Clone(payload)}, s, nil
}

var errShortRecord = alertf(AlertDecodeError, "tls13: short record")

// halfConn is one direction of record protection (AES-128-GCM per the
// negotiated TLS_AES_128_GCM_SHA256 suite).
//
// The scratch buffers make steady-state seal/open allocation-free: the
// nonce and additional data live in the struct (values passed through the
// cipher.AEAD interface escape, so stack copies would heap-allocate), and
// enc/dec staging buffers are reused across records.
type halfConn struct {
	aead cipher.AEAD
	iv   [12]byte
	seq  uint64

	nonceBuf [12]byte
	adBuf    [5]byte
	encBuf   []byte
	decBuf   []byte
}

func newHalfConn(key, iv []byte) (*halfConn, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("tls13: AEAD key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tls13: GCM: %w", err)
	}
	hc := &halfConn{aead: aead}
	copy(hc.iv[:], iv)
	return hc, nil
}

// fillNonce XORs the current sequence number into the static IV
// (RFC 8446 §5.3) in the struct-resident nonce buffer.
func (hc *halfConn) fillNonce() {
	copy(hc.nonceBuf[:], hc.iv[:])
	for i := 0; i < 8; i++ {
		hc.nonceBuf[4+i] ^= byte(hc.seq >> (56 - 8*i))
	}
}

// fillAD writes the record header of the protected record (the AEAD
// additional data) for the given ciphertext length.
func (hc *halfConn) fillAD(ctLen int) {
	hc.adBuf[0] = RecordApplicationData
	hc.adBuf[1], hc.adBuf[2] = 0x03, 0x03
	binary.BigEndian.PutUint16(hc.adBuf[3:], uint16(ctLen))
}

// errSeqExhausted guards the AEAD nonce space: RFC 8446 §5.5 requires the
// connection to rekey or close before the 64-bit record sequence number
// wraps, since a repeated (key, nonce) pair breaks AES-GCM entirely.
var errSeqExhausted = errors.New("tls13: record sequence number exhausted, rekey or close required")

// seal wraps plaintext of the given inner content type into an encrypted
// application-data record (TLSInnerPlaintext per RFC 8446 §5.2).
//
// The returned payload aliases hc's internal scratch buffer and is only
// valid until the next seal on this halfConn: callers that accumulate
// records across seals (multi-record handshake flights) must clone it.
func (hc *halfConn) seal(innerType uint8, plaintext []byte) (Record, error) {
	if hc.seq == 1<<64-1 {
		return Record{}, errSeqExhausted
	}
	ctLen := len(plaintext) + 1 + hc.aead.Overhead()
	if cap(hc.encBuf) < ctLen {
		hc.encBuf = make([]byte, ctLen)
	}
	inner := append(hc.encBuf[:0], plaintext...)
	inner = append(inner, innerType)
	hc.fillNonce()
	hc.fillAD(ctLen)
	// In-place encryption: dst inner[:0] reuses the staging buffer, which
	// already has room for the tag.
	ct := hc.aead.Seal(inner[:0], hc.nonceBuf[:], inner, hc.adBuf[:])
	hc.seq++
	return Record{Type: RecordApplicationData, Payload: ct}, nil
}

// open reverses seal, returning the inner content type and plaintext.
//
// The returned plaintext aliases hc's internal scratch buffer and is only
// valid until the next open on this halfConn.
func (hc *halfConn) open(rec Record) (uint8, []byte, error) {
	if rec.Type != RecordApplicationData {
		return 0, nil, alertf(AlertUnexpectedMessage, "tls13: expected protected record, got type %d", rec.Type)
	}
	if hc.seq == 1<<64-1 {
		return 0, nil, errSeqExhausted
	}
	hc.fillNonce()
	hc.fillAD(len(rec.Payload))
	if cap(hc.decBuf) < len(rec.Payload) {
		hc.decBuf = make([]byte, len(rec.Payload))
	}
	inner, err := hc.aead.Open(hc.decBuf[:0], hc.nonceBuf[:], rec.Payload, hc.adBuf[:])
	if err != nil {
		return 0, nil, alertf(AlertBadRecordMAC, "tls13: record decryption failed: %w", err)
	}
	hc.seq++
	// Strip zero padding, then the inner type byte.
	i := len(inner) - 1
	for i >= 0 && inner[i] == 0 {
		i--
	}
	if i < 0 {
		return 0, nil, alertf(AlertUnexpectedMessage, "tls13: all-zero inner plaintext") // RFC 8446 §5.4
	}
	return inner[i], inner[:i], nil
}
