package tls13

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pqtls/internal/wire"
)

// This file adapts the sans-IO state machines to real byte streams
// (net.Conn, net.Pipe), the mode used by the cmd/ binaries, internal/live,
// internal/loadgen and integration tests. The measurement harness drives
// the state machines directly through the discrete-event simulation
// instead.

// Stream limits. Every read the drivers make is bounded, so a peer cannot
// make an endpoint buffer more than these before the handshake fails.
const (
	// maxCiphertext is RFC 8446 §5.2's cap on a record body: 2^14 bytes of
	// plaintext plus 256 of protection overhead.
	maxCiphertext = maxRecordPayload + 256
	// maxClientHello caps the declared length of a ClientHello. The
	// largest registered suite (p521_hqc256) sends about 7.5 KB.
	maxClientHello = 64 << 10
	// maxClientFlight caps the records of the client's final flight; an
	// honest client sends two (ChangeCipherSpec + Finished).
	maxClientFlight = 4
)

var (
	errRecordOverflow = alertf(AlertRecordOverflow, "tls13: record overflow")
	errHelloTooLarge  = alertf(AlertIllegalParameter, "tls13: ClientHello too large")
)

// WriteRecords marshals records to the stream.
func WriteRecords(w io.Writer, records []Record) error {
	for _, rec := range records {
		if _, err := w.Write(rec.Marshal()); err != nil {
			return fmt.Errorf("tls13: writing record: %w", err)
		}
	}
	return nil
}

// ReadRecord reads exactly one record from the stream. A header declaring
// more than 2^14+256 bytes fails with record_overflow before the body is
// read or allocated.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, fmt.Errorf("tls13: reading record header: %w", err)
	}
	var n uint16
	lengthField := wire.String(hdr[3:])
	lengthField.ReadUint16(&n)
	if n > maxCiphertext {
		return Record{}, fmt.Errorf("%w: %d-byte record, limit %d", errRecordOverflow, n, maxCiphertext)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, fmt.Errorf("tls13: reading record body: %w", err)
	}
	return Record{Type: hdr[0], Payload: payload}, nil
}

// ClientHandshake performs a full client handshake over conn. It is the one
// socket client driver: each blocking read is reported to cfg.Hooks as a
// depth-0 PhaseFlightWait, and HelloSent records when the ClientHello went
// out. On a local handshake failure a fatal alert is sent before returning
// the error.
func ClientHandshake(conn io.ReadWriter, cfg *Config) (*Client, error) {
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	flight, err := c.Start()
	if err != nil {
		return nil, err
	}
	c.helloSent = time.Now()
	if err := WriteRecords(conn, flight); err != nil {
		return nil, err
	}
	for {
		endWait := cfg.phase(PhaseFlightWait)
		rec, err := ReadRecord(conn)
		endWait()
		if err != nil {
			return nil, err
		}
		out, done, err := c.Consume([]Record{rec})
		if err != nil {
			// Send the alert without blocking the error return: on an
			// unbuffered transport (net.Pipe) the peer may still be
			// mid-flight and not yet reading.
			go abort(conn, err)
			return nil, err
		}
		if len(out) > 0 {
			// Either the final flight or a HelloRetryRequest retry.
			if err := WriteRecords(conn, out); err != nil {
				return nil, err
			}
		}
		if done {
			c.done = true
			return c, nil
		}
	}
}

// HelloSent returns the instant ClientHandshake started writing the first
// ClientHello: the origin of the CH→Fin span the passive tap measures in
// the modeled pipeline. Key generation happens before it.
func (c *Client) HelloSent() time.Time { return c.helloSent }

// ServerHandshake performs a full server handshake over conn. Every read is
// bounded (see the stream limits above), and a failure this side detects
// sends a fatal alert before the error is returned.
func ServerHandshake(conn io.ReadWriter, cfg *Config) (*Server, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	// At most one HelloRetryRequest round (RFC 8446 §4.1.4): Respond
	// answers a retried ClientHello in full or fails.
	for round := 0; round < 2; round++ {
		hello, err := readHello(conn)
		if err != nil {
			return nil, abort(conn, err)
		}
		retried := s.hrrSent
		flushes, err := s.Respond(hello)
		if err != nil {
			return nil, abort(conn, err)
		}
		for _, f := range flushes {
			if err := WriteRecords(conn, f.Records); err != nil {
				return nil, err
			}
		}
		if s.hrrSent == retried {
			break // a full response, not a HelloRetryRequest
		}
	}
	// Read the client's CCS + Finished.
	var flight []Record
	for {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, abort(conn, err)
		}
		flight = append(flight, rec)
		if rec.Type == RecordApplicationData || rec.Type == RecordAlert {
			break
		}
		if len(flight) == maxClientFlight {
			return nil, abort(conn, alertf(AlertUnexpectedMessage, "tls13: client's final flight exceeds %d records", maxClientFlight))
		}
	}
	if err := s.Finish(flight); err != nil {
		return nil, abort(conn, err)
	}
	return s, nil
}

// readHello reads one ClientHello, which may span several records, and
// fails as soon as its declared length exceeds maxClientHello: at most one
// record past the 4-byte message header is ever buffered.
func readHello(conn io.Reader) ([]Record, error) {
	var msg []byte
	want := -1 // header plus declared body length, once the header is in
	for want < 0 || len(msg) < want {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		if rec.Type != RecordHandshake || len(rec.Payload) == 0 {
			return nil, alertf(AlertUnexpectedMessage, "tls13: record (type %d, %d bytes) in ClientHello", rec.Type, len(rec.Payload))
		}
		if msg == nil {
			msg = rec.Payload
		} else {
			msg = append(msg, rec.Payload...)
		}
		header := wire.String(msg)
		var n uint32
		if want < 0 && header.Skip(1) && header.ReadUint24(&n) {
			if n > maxClientHello {
				return nil, fmt.Errorf("%w: declares %d bytes, limit %d", errHelloTooLarge, n, maxClientHello)
			}
			want = 4 + int(n)
		}
	}
	return []Record{{Type: RecordHandshake, Payload: msg}}, nil
}

// abort sends the fatal alert for err and returns err; an alert from the
// peer is not answered. After a transport failure the alert's write fails
// too, harmlessly.
func abort(conn io.Writer, err error) error {
	var remote *AlertError
	if !errors.As(err, &remote) {
		WriteRecords(conn, []Record{FatalAlert(alertFor(err))})
	}
	return err
}
