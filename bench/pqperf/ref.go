//go:build linux

package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"time"
)

// The host this benchmark runs on is a small shared virtual machine whose
// speed changes by up to a factor of two within minutes (README, "Host-speed
// compensation"). No amount of repetition inside a 30-second run averages
// that out, and no bound of 25 % survives it. So every end-to-end time is
// reported in reference-host units: the run keeps measuring a reference
// operation that none of this repository's code takes part in, next to each
// measured segment, and scales the segment's times by how much slower or
// faster than nominal the reference ran.
//
// The reference is a pair of crypto/tls 1.3 handshakes (P-256 ECDHE, ECDSA
// P-256 certificate) between two goroutines, one over net.Pipe and one over
// a loopback TCP connection. It was chosen because it tracks what the host
// does to a handshake: over 23 minutes in which this host's speed swung 2×,
// the pipe handshake's correlation with each of the sans-IO and two-process
// pqtls handshake times was 0.90 to 0.95, where a SHA-256 loop reached 0.78
// and a memory copy 0.86. The TCP half adds the socket system calls and
// wake-ups that dominate the short handshakes of classic_full.
const (
	// refNominal is the time of one reference pair that maps to a host index
	// of 1: about what this host needs when its neighbours are quiet (500 µs
	// over the pipe, 600 µs over TCP).
	refNominal = 1100 * time.Microsecond
	// refPairs is the number of reference pairs in one sample.
	refPairs = 40
)

// reference measures the host's current speed.
type reference struct {
	server, client *tls.Config
	ln             net.Listener
	accepted       chan struct{} // closed when the accept loop has returned
	pairs          int           // per sample
}

func newReference() (*reference, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "pqperf reference"},
		DNSNames:     []string{"reference"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		IsCA:         true, BasicConstraintsValid: true,
		KeyUsage: x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{
		server: &tls.Config{
			Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}},
			MinVersion:   tls.VersionTLS13,
		},
		client:   &tls.Config{RootCAs: pool, ServerName: "reference", MinVersion: tls.VersionTLS13},
		ln:       ln,
		accepted: make(chan struct{}),
		pairs:    refPairs,
	}
	go r.acceptLoop()
	return r, nil
}

// acceptLoop answers the TCP half of the reference, one connection at a
// time, until the listener closes.
func (r *reference) acceptLoop() {
	defer close(r.accepted)
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		conn.SetDeadline(time.Now().Add(hsTimeout))
		tls.Server(conn, r.server).Handshake() // the client reports a failure
		conn.Close()
	}
}

// close stops the accept loop and waits for it.
func (r *reference) close() {
	r.ln.Close()
	<-r.accepted
}

func (r *reference) overPipe() error {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	done := make(chan error, 1)
	go func() { done <- tls.Server(s, r.server).Handshake() }()
	err := tls.Client(c, r.client).Handshake()
	if serr := <-done; err == nil {
		err = serr
	}
	return err
}

func (r *reference) overTCP() error {
	conn, err := net.DialTimeout("tcp", r.ln.Addr().String(), hsTimeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(hsTimeout))
	err = tls.Client(conn, r.client).Handshake()
	conn.(*net.TCPConn).SetLinger(0) // no TIME_WAIT, as in abortiveClose
	conn.Close()
	return err
}

// index runs one sample of reference pairs and returns their mean time over
// the nominal time: 1 on the nominal host, 2 on a host half as fast.
func (r *reference) index() (float64, error) {
	start := time.Now()
	for i := 0; i < r.pairs; i++ {
		if err := r.overPipe(); err != nil {
			return 0, err
		}
		if err := r.overTCP(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(r.pairs) / float64(refNominal), nil
}
