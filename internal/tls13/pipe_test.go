package tls13

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"pqtls/internal/kem"
	"pqtls/internal/obs"
)

// scriptConn feeds a scripted byte stream to a driver and captures what it
// writes back.
type scriptConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// lastRecord parses the written stream and returns its final record.
func lastRecord(t *testing.T, wire []byte) Record {
	t.Helper()
	var last Record
	for len(wire) > 0 {
		rec, rest, err := ParseRecord(wire)
		if err != nil {
			t.Fatalf("server wrote a malformed stream: %v", err)
		}
		last, wire = rec, rest
	}
	return last
}

func marshalAll(records []Record) []byte {
	var out []byte
	for _, r := range records {
		out = append(out, r.Marshal()...)
	}
	return out
}

// A record header declaring more than 2^14+256 bytes fails with
// record_overflow before its body is read.
func TestReadRecordOverflow(t *testing.T) {
	t.Parallel()
	const n = maxCiphertext + 1 // 16 641
	in := bytes.NewReader(append([]byte{RecordHandshake, 3, 3, n >> 8, n & 0xff}, make([]byte, n)...))
	_, err := ReadRecord(in)
	if !errors.Is(err, errRecordOverflow) {
		t.Fatalf("err %v, want record overflow", err)
	}
	if alertFor(err) != AlertRecordOverflow {
		t.Errorf("alert %d, want record_overflow (22)", alertFor(err))
	}
	if in.Len() != n {
		t.Errorf("%d body bytes left unread, want %d", in.Len(), n)
	}
	// The largest legal record still reads.
	in = bytes.NewReader(append([]byte{RecordApplicationData, 3, 3, maxCiphertext >> 8, maxCiphertext & 0xff}, make([]byte, maxCiphertext)...))
	if _, err := ReadRecord(in); err != nil {
		t.Errorf("2^14+256-byte record rejected: %v", err)
	}
}

// Each stream limit of ServerHandshake fails the handshake with its alert
// and stops reading early: bytes are left in the input.
func TestServerHandshakeLimits(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	ccs := Record{Type: RecordChangeCipherSpec, Payload: []byte{1}}
	ccsFlood := marshalAll(ch)
	for i := 0; i < 100; i++ {
		ccsFlood = append(ccsFlood, ccs.Marshal()...)
	}
	const big = maxCiphertext + 1
	for _, tc := range []struct {
		name  string
		in    []byte
		err   error  // sentinel, or nil to match want below
		want  string // error substring when err is nil
		alert uint8
	}{
		{
			name:  "oversized record",
			in:    append([]byte{RecordHandshake, 3, 3, big >> 8, big & 0xff}, make([]byte, big)...),
			err:   errRecordOverflow,
			alert: AlertRecordOverflow,
		},
		{
			name: "ClientHello declaring 16 MiB",
			in: append(
				Record{Type: RecordHandshake, Payload: []byte{typeClientHello, 0xff, 0xff, 0xff, 0, 0, 0, 0}}.Marshal(),
				Record{Type: RecordHandshake, Payload: make([]byte, 1000)}.Marshal()...),
			err:   errHelloTooLarge,
			alert: AlertIllegalParameter,
		},
		{
			name:  "CCS flood after a valid ClientHello",
			in:    ccsFlood,
			want:  "final flight",
			alert: AlertUnexpectedMessage,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &scriptConn{in: bytes.NewReader(tc.in)}
			_, err := ServerHandshake(conn, srvCfg)
			switch {
			case err == nil:
				t.Fatal("handshake succeeded")
			case tc.err != nil && !errors.Is(err, tc.err):
				t.Errorf("err %v, want %v", err, tc.err)
			case tc.err == nil && !strings.Contains(err.Error(), tc.want):
				t.Errorf("err %v, want one naming %q", err, tc.want)
			}
			if got := lastRecord(t, conn.out.Bytes()); got.Type != RecordAlert || len(got.Payload) != 2 || got.Payload[1] != tc.alert {
				t.Errorf("last record written %+v, want fatal alert %d", got, tc.alert)
			}
			if conn.in.Len() == 0 {
				t.Error("the server read the whole input; the limit did not stop it early")
			}
		})
	}
}

// Every ClientHello a registered suite sends fits maxClientHello: plain,
// with a PSK, and as the retry after a HelloRetryRequest, for every KEM.
func TestClientHelloFitsCap(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	srvCfg.Tickets = NewTicketStore([ticketKeySize]byte{1})
	sess := fullHandshakeWithTicket(t, cliCfg, srvCfg)

	helloLen := func(records []Record) int {
		n := 0
		for _, r := range records {
			n += len(r.Payload)
		}
		return n
	}
	largest := 0
	for _, name := range kem.Names() {
		for _, psk := range []bool{false, true} {
			for _, hrr := range []bool{false, true} {
				cfg, scfg := *cliCfg, *srvCfg
				cfg.KEMName, scfg.KEMName = name, name
				if psk {
					cfg.Session = &Session{Ticket: sess.Ticket, PSK: sess.PSK, KEMName: name}
				}
				if hrr {
					// Guess another group so the server asks for name's.
					cfg.KEMName, cfg.SupportedKEMs = "x25519", []string{name}
					if name == "x25519" {
						cfg.KEMName = "p256"
					}
				}
				cli, err := NewClient(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				hello, err := cli.Start()
				if err != nil {
					t.Fatal(err)
				}
				if hrr {
					srv, err := NewServer(&scfg)
					if err != nil {
						t.Fatal(err)
					}
					flushes, err := srv.Respond(hello)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if hello, _, err = cli.Consume(flushes[0].Records); err != nil {
						t.Fatalf("%s: retry: %v", name, err)
					}
				}
				n := helloLen(hello)
				if n > 4+maxClientHello {
					t.Errorf("%s (psk %v, hrr %v): ClientHello of %d bytes exceeds the %d-byte cap", name, psk, hrr, n, maxClientHello)
				}
				if n > largest {
					largest = n
				}
			}
		}
	}
	t.Logf("largest registered ClientHello: %d bytes (cap %d)", largest, maxClientHello)
}

// ClientHandshake reports each blocking read as a depth-0 flight-wait span,
// and HelloSent comes after the ClientHello build closes.
func TestClientHandshakeFlightWait(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	var origin time.Time
	tracer := obs.NewTracer(obs.Meta{Endpoint: "client"}, func() time.Time {
		now := time.Now()
		if origin.IsZero() {
			origin = now
		}
		return now
	})
	cliCfg.Hooks = tracer
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, srvCfg)
		errCh <- err
	}()
	cli, err := ClientHandshake(cConn, cliCfg)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	waits := 0
	var helloEnd time.Duration = -1
	for _, s := range tracer.Spans() {
		switch {
		case s.Name == PhaseFlightWait && s.Depth == 0:
			waits++
		case s.Name == PhaseClientHello:
			helloEnd = s.End
		}
	}
	if waits < 2 {
		t.Errorf("%d depth-0 flight-wait spans, want at least 2", waits)
	}
	if helloEnd < 0 {
		t.Fatal("no client-hello span recorded")
	}
	if sent := cli.HelloSent().Sub(origin); sent < helloEnd {
		t.Errorf("HelloSent at %v, before the client-hello phase closed at %v", sent, helloEnd)
	}
}
