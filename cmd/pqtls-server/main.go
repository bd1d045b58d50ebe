// Command pqtls-server is the reproduction's analog of `openssl s_server`:
// it answers PQ TLS 1.3 handshakes over real TCP sockets, built on the
// internal/live runtime — transient Accept errors retry with backoff
// instead of killing the process, every connection carries a handshake
// deadline so a stalled peer cannot leak a goroutine, concurrency is
// bounded, session tickets are issued from a store shared across
// connections, and SIGINT drains gracefully. The matching client is
// cmd/pqtls-client. The root certificate is written to a file the client
// loads.
//
//	pqtls-server -listen :8443 -kem kyber512 -sig dilithium2 -root root.cert
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pqtls"
	"pqtls/internal/live"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "listen address")
	kemName := flag.String("kem", "x25519", "key agreement (see pqbench list)")
	sigName := flag.String("sig", "rsa:2048", "certificate signature algorithm")
	rootOut := flag.String("root", "root.cert", "file to write the root certificate to")
	buffer := flag.String("buffer", "immediate", "flight buffering: default|immediate")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics + /healthz on this address (e.g. 127.0.0.1:9090; empty = off)")
	maxConns := flag.Int("max-conns", 256, "concurrent handshake limit")
	hsTimeout := flag.Duration("timeout", 10*time.Second, "per-connection handshake deadline")
	grace := flag.Duration("grace", 5*time.Second, "drain grace period on shutdown")
	flag.Parse()
	policy, err := pqtls.ParseBufferPolicy(*buffer)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	root, rootPriv, err := pqtls.SelfSigned("PQTLS Root CA", *sigName)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := pqtls.SignatureByName(*sigName)
	if err != nil {
		log.Fatal(err)
	}
	leafPub, leafPriv, err := scheme.GenerateKey(nil)
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := pqtls.IssueCertificate(2, "server.example", *sigName, leafPub, root, rootPriv)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*rootOut, root.Marshal(), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("root certificate written to %s", *rootOut)

	cfg := &pqtls.Config{
		KEMName: *kemName, SigName: *sigName, ServerName: "server.example",
		Chain: []*pqtls.Certificate{leaf}, PrivateKey: leafPriv, Buffer: policy,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := live.Serve(ln, live.Options{
		Config:           cfg,
		MaxConns:         *maxConns,
		HandshakeTimeout: *hsTimeout,
		IssueTickets:     true,
		Logf:             log.Printf,
		MetricsAddr:      *metrics,
		PhaseMetrics:     *metrics != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (kem=%s sig=%s, max %d conns, %v handshake deadline)",
		ln.Addr(), *kemName, *sigName, *maxConns, *hsTimeout)
	if a := srv.MetricsAddr(); a != nil {
		log.Printf("metrics on http://%s/metrics, health on /healthz", a)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down: draining for up to %v", *grace)
	if err := srv.Shutdown(*grace); err != nil {
		log.Print(err)
	}
	c := srv.Counters()
	ts := srv.TicketStats()
	log.Printf("served %d connections: %d completed (%d resumed), %d failed; tickets issued %d, redeemed %d, rejected %d",
		c.Accepted, c.Completed, c.Resumed, c.FailedTotal(), ts.Issued, ts.Redeemed, ts.Rejected)
	for class, n := range c.Failed {
		log.Printf("failures[%s]: %d", class, n)
	}
}
