package tls13

import (
	"errors"
	"fmt"
	"strings"

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
	AlertUnknownCA         uint8 = 48
	AlertIllegalParameter  uint8 = 47
	AlertDecryptError      uint8 = 51
	AlertProtocolVersion   uint8 = 70
	AlertInternalError     uint8 = 80
)

// alertNames renders descriptions for diagnostics.
var alertNames = map[uint8]string{
	AlertCloseNotify:       "close_notify",
	AlertUnexpectedMessage: "unexpected_message",
	AlertBadRecordMAC:      "bad_record_mac",
	AlertRecordOverflow:    "record_overflow",
	AlertHandshakeFailure:  "handshake_failure",
	AlertBadCertificate:    "bad_certificate",
	AlertUnknownCA:         "unknown_ca",
	AlertIllegalParameter:  "illegal_parameter",
	AlertDecryptError:      "decrypt_error",
	AlertProtocolVersion:   "protocol_version",
	AlertInternalError:     "internal_error",
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
	name, ok := alertNames[e.Description]
	if !ok {
		name = "unknown"
	}
	return fmt.Sprintf("tls13: remote alert: %s (%d)", name, e.Description)
}

// parseAlert interprets an alert record.
func parseAlert(rec Record) error {
	s := wire.String(rec.Payload)
	var e AlertError
	if !s.ReadUint8(&e.Level) || !s.ReadUint8(&e.Description) || !s.Empty() {
		return fmt.Errorf("tls13: malformed alert record")
	}
	return &e
}

// alertFor maps a local handshake failure to the alert description the
// endpoint should send (RFC 8446 §6.2).
func alertFor(err error) uint8 {
	if err == nil {
		return AlertCloseNotify
	}
	msg := err.Error()
	switch {
	case errors.Is(err, errRecordOverflow):
		return AlertRecordOverflow
	case errors.Is(err, errHelloTooLarge):
		return AlertIllegalParameter
	case errors.Is(err, errNotOnRecordBoundary):
		return AlertUnexpectedMessage
	case contains(msg, "certificate"):
		return AlertBadCertificate
	case contains(msg, "decryption failed"), contains(msg, "Finished verification"):
		return AlertDecryptError
	case contains(msg, "group"), contains(msg, "sigalg"), contains(msg, "suite"):
		return AlertHandshakeFailure
	case contains(msg, "unexpected"), contains(msg, "expected"):
		return AlertUnexpectedMessage
	default:
		return AlertInternalError
	}
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
