// Command pqtls-client is the reproduction's analog of `openssl s_client`:
// it performs PQ TLS 1.3 handshakes against cmd/pqtls-server over real TCP
// and reports ClientHello → Finished latency quantiles (repeat with -n for
// a quick benchmark; a further tenth run first as warmup). With -resume, one
// full handshake collects the server's NewSessionTicket and every measured
// handshake resumes from it over a fresh TCP connection, exercising the
// shared ticket store end to end.
//
//	pqtls-client -connect 127.0.0.1:8443 -kem kyber512 -sig dilithium2 -root root.cert -n 10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pqtls"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/pki"
)

func main() {
	addr := flag.String("connect", "127.0.0.1:8443", "server address")
	kemName := flag.String("kem", "x25519", "key agreement")
	sigName := flag.String("sig", "rsa:2048", "expected certificate algorithm")
	rootFile := flag.String("root", "root.cert", "trusted root certificate file")
	n := flag.Int("n", 1, "number of sequential handshakes")
	resume := flag.Bool("resume", false, "resume every handshake from one priming handshake's session ticket")
	trace := flag.Bool("trace", false, "record per-phase spans and print a p50/p95 phase breakdown")
	flag.Parse()

	rootBytes, err := os.ReadFile(*rootFile)
	if err != nil {
		log.Fatal(err)
	}
	root, err := pki.Unmarshal(rootBytes)
	if err != nil {
		log.Fatal(err)
	}
	opts := loadgen.Options{
		Addr: *addr,
		Config: &pqtls.Config{
			KEMName: *kemName, SigName: *sigName, ServerName: "server.example",
			Roots: pqtls.NewCertPool(root),
		},
		Handshakes: *n,
		Resume:     *resume,
	}
	if *trace {
		opts.Trace = &obs.Collector{}
	}
	res, err := loadgen.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	h := &res.Hist
	fmt.Printf("%d handshakes (%d resumed, %d warmup): CH→Fin p50 %v, p95 %v, p99 %v, min %v, max %v\n",
		res.Completed, res.Resumed, res.Warmup,
		h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Min(), h.Max())
	if *trace {
		fmt.Println("phase breakdown (wall clock, tls13 state-machine spans and flight-wait):")
		if err := obs.WritePhaseTable(os.Stdout, obs.AggregatePhases(opts.Trace.Traces())); err != nil {
			log.Fatal(err)
		}
	}
	if res.Failed > 0 {
		log.Fatalf("%d handshakes failed, by class: %v", res.Failed, res.Errors)
	}
}
