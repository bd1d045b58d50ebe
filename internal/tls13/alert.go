package tls13

import (
	"cmp"
	"errors"
	"fmt"

	"pqtls/internal/wire"
)

// TLS alert descriptions (RFC 8446 §6) used by this stack.
const (
	AlertCloseNotify       uint8 = 0
	AlertUnexpectedMessage uint8 = 10
	AlertBadRecordMAC      uint8 = 20
	AlertRecordOverflow    uint8 = 22
	AlertHandshakeFailure  uint8 = 40
	AlertBadCertificate    uint8 = 42
	AlertIllegalParameter  uint8 = 47
	AlertUnknownCA         uint8 = 48
	AlertDecodeError       uint8 = 50
	AlertDecryptError      uint8 = 51
	AlertProtocolVersion   uint8 = 70
	AlertInternalError     uint8 = 80
	AlertMissingExtension  uint8 = 109
)

// alertNames renders descriptions for diagnostics.
var alertNames = map[uint8]string{
	AlertCloseNotify:       "close_notify",
	AlertUnexpectedMessage: "unexpected_message",
	AlertBadRecordMAC:      "bad_record_mac",
	AlertRecordOverflow:    "record_overflow",
	AlertHandshakeFailure:  "handshake_failure",
	AlertBadCertificate:    "bad_certificate",
	AlertIllegalParameter:  "illegal_parameter",
	AlertUnknownCA:         "unknown_ca",
	AlertDecodeError:       "decode_error",
	AlertDecryptError:      "decrypt_error",
	AlertProtocolVersion:   "protocol_version",
	AlertInternalError:     "internal_error",
	AlertMissingExtension:  "missing_extension",
}

// FatalAlert builds the plaintext record an endpoint sends before tearing
// down a failed handshake.
func FatalAlert(desc uint8) Record {
	return Record{Type: RecordAlert, Payload: []byte{2 /* fatal */, desc}}
}

// AlertError is returned when the peer aborted the handshake with an alert.
type AlertError struct {
	Level       uint8
	Description uint8
}

// Error names the alert ("remote alert: bad_certificate (42)").
func (e *AlertError) Error() string {
	name := cmp.Or(alertNames[e.Description], "unknown")
	return fmt.Sprintf("tls13: remote alert: %s (%d)", name, e.Description)
}

// parseAlert interprets an alert record.
func parseAlert(rec Record) error {
	s := wire.String(rec.Payload)
	var e AlertError
	if !s.ReadUint8(&e.Level) || !s.ReadUint8(&e.Description) || !s.Empty() {
		return alertf(AlertDecodeError, "tls13: malformed alert record")
	}
	return &e
}

// alertError is a local handshake failure together with the alert that
// answers it, chosen where the fault is detected (the table in DESIGN.md,
// "Alert protocol", lists them with their RFC 8446 sections).
type alertError struct {
	desc uint8
	err  error
}

func (e *alertError) Error() string { return e.err.Error() }
func (e *alertError) Unwrap() error { return e.err }

// alertf is fmt.Errorf for a failure answered with the alert desc.
func alertf(desc uint8, format string, args ...any) error {
	return &alertError{desc: desc, err: fmt.Errorf(format, args...)}
}

// alertFor returns the alert an endpoint sends for a local handshake
// failure (RFC 8446 §6.2): the one the failure carries, or internal_error
// for a failure that names none (key generation, signing, I/O).
func alertFor(err error) uint8 {
	var ae *alertError
	if errors.As(err, &ae) {
		return ae.desc
	}
	return AlertInternalError
}
