package tls13

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// RFC 8446 §5.1: a handshake message that precedes a key change must end
// its record, or the receiver aborts with unexpected_message. The
// ClientHello, the ServerHello and the client Finished are such messages.
// Each test below runs the socket handshake of one side over net.Pipe against
// a peer that appends a whole extra handshake message to that record, then
// replays the same flight into a fresh sans-IO endpoint to check Done().

// extraMessage is an empty EncryptedExtensions, a well-formed message that
// has no business sharing the record.
var extraMessage = []byte{typeEncryptedExts, 0, 0, 2, 0, 0}

func withExtraMessage(rec Record) Record {
	return Record{Type: rec.Type, Payload: append(bytes.Clone(rec.Payload), extraMessage...)}
}

// boundaryPipe returns both ends of a pipe under a deadline, so a handshake
// waiting for bytes that never come fails the test instead of hanging it.
func boundaryPipe(t *testing.T) (client, server net.Conn) {
	client, server = net.Pipe()
	deadline := time.Now().Add(10 * time.Second)
	client.SetDeadline(deadline)
	server.SetDeadline(deadline)
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// expectUnexpectedMessage checks that the next record on conn is a fatal
// unexpected_message alert and that the handshake failed with the §5.1 error.
func expectUnexpectedMessage(t *testing.T, conn io.Reader, handshakeErr <-chan error) {
	t.Helper()
	rec, err := ReadRecord(conn)
	if err != nil {
		t.Fatalf("reading the alert: %v", err)
	}
	if rec.Type != RecordAlert || !bytes.Equal(rec.Payload, []byte{2, AlertUnexpectedMessage}) {
		t.Errorf("peer wrote record type %d %x, want a fatal unexpected_message alert", rec.Type, rec.Payload)
	}
	if err := <-handshakeErr; !errors.Is(err, errNotOnRecordBoundary) {
		t.Errorf("handshake error %v, want %v", err, errNotOnRecordBoundary)
	}
}

// finalFlightOf runs a sans-IO handshake up to the client's final flight,
// which it returns undelivered.
func finalFlightOf(t *testing.T, cliCfg, srvCfg *Config) (*Client, *Server, []Record) {
	t.Helper()
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
	for _, f := range flushes {
		out, done, err := cli.Consume(f.Records)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return cli, srv, out
		}
	}
	t.Fatal("client did not complete")
	return nil, nil, nil
}

// finishedWithExtraMessage reseals the client Finished of final with
// extraMessage after it in the same record.
func finishedWithExtraMessage(t *testing.T, cli *Client, final []Record) []Record {
	t.Helper()
	key, iv := cli.ks.trafficKeys(cli.ks.clientHSTraffic[:])
	opener, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	_, fin, err := opener.open(final[1])
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sealer.seal(RecordHandshake, append(bytes.Clone(fin), extraMessage...))
	if err != nil {
		t.Fatal(err)
	}
	return []Record{final[0], rec}
}

func TestClientHelloNotOnRecordBoundary(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	hello = []Record{withExtraMessage(hello[0])}

	cConn, sConn := boundaryPipe(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, srvCfg)
		errCh <- err
	}()
	if err := WriteRecords(cConn, hello); err != nil {
		t.Fatal(err)
	}
	expectUnexpectedMessage(t, cConn, errCh)

	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Respond(hello); !errors.Is(err, errNotOnRecordBoundary) || srv.Done() {
		t.Errorf("sans-IO Respond: err %v, Done %v", err, srv.Done())
	}
}

func TestServerHelloNotOnRecordBoundary(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	// The ServerHello record of an honest flight, with the extra message.
	tamper := func(flushes []Flush) []Record {
		var flight []Record
		for _, f := range flushes {
			flight = append(flight, f.Records...)
		}
		flight[0] = withExtraMessage(flight[0])
		return flight
	}

	cConn, sConn := boundaryPipe(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := ClientHandshake(cConn, cliCfg)
		errCh <- err
	}()
	hello, err := readHello(sConn)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	flushes, err := srv.Respond(hello)
	if err != nil {
		t.Fatal(err)
	}
	// The client stops reading at the ServerHello; the rest of the write
	// ends when the pipe closes.
	go WriteRecords(sConn, tamper(flushes))
	expectUnexpectedMessage(t, sConn, errCh)

	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	if hello, err = cli.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err = NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	if flushes, err = srv.Respond(hello); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Consume(tamper(flushes)); !errors.Is(err, errNotOnRecordBoundary) || cli.Done() {
		t.Errorf("sans-IO Consume: err %v, Done %v", err, cli.Done())
	}
}

func TestClientFinishedNotOnRecordBoundary(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)

	cConn, sConn := boundaryPipe(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, srvCfg)
		errCh <- err
	}()
	cli, err := NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(cConn, hello); err != nil {
		t.Fatal(err)
	}
	var final []Record
	for final == nil {
		rec, err := ReadRecord(cConn)
		if err != nil {
			t.Fatal(err)
		}
		out, done, err := cli.Consume([]Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		if done {
			final = out
		}
	}
	if err := WriteRecords(cConn, finishedWithExtraMessage(t, cli, final)); err != nil {
		t.Fatal(err)
	}
	expectUnexpectedMessage(t, cConn, errCh)

	cli, srv, final := finalFlightOf(t, cliCfg, srvCfg)
	if err := srv.Finish(finishedWithExtraMessage(t, cli, final)); !errors.Is(err, errNotOnRecordBoundary) || srv.Done() {
		t.Errorf("sans-IO Finish: err %v, Done %v", err, srv.Done())
	}
}

// A final flight carrying the Finished twice fails as a whole: the
// handshake is not done. ServerHandshake stops reading at the first
// protected record, so only a flight handed to Finish directly, as the
// modeled testbed does, can carry the second copy.
func TestFinishedTwiceNotDone(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	_, srv, final := finalFlightOf(t, cliCfg, srvCfg)
	err := srv.Finish(append(final, final[1]))
	if err == nil || srv.Done() {
		t.Fatalf("Finish: err %v, Done %v", err, srv.Done())
	}
	if got := alertFor(err); got != AlertUnexpectedMessage {
		t.Errorf("alert %d, want unexpected_message", got)
	}
}
