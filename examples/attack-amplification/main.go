// Attack-amplification example: Section 5.5 of the paper.
//
// PQ TLS can be highly asymmetric: a small spoofed ClientHello can elicit a
// server flight up to ~96x larger (amplification), and server CPU cost can
// exceed the client's several-fold (computational DoS). Both levers are
// dominated by the signature algorithm choice. This example measures the
// asymmetry for a few certificate algorithms and compares against QUIC's
// mandated 3x amplification limit.
package main

import (
	"fmt"
	"log"

	"pqtls"
)

func main() {
	sigs := []string{"rsa:2048", "falcon512", "dilithium2", "dilithium5", "sphincs128", "sphincs256"}

	fmt.Println("Handshake asymmetry by certificate algorithm (KA fixed to x25519)")
	fmt.Println()
	fmt.Printf("%-12s %10s %10s %14s %14s\n", "SA", "client B", "server B", "amplification", "CPU srv/cli")
	worst := 0.0
	worstName := ""
	for _, s := range sigs {
		r, err := pqtls.RunCampaign(pqtls.CampaignOptions{
			KEM: "x25519", Sig: s, Link: pqtls.ScenarioTestbed,
			Buffer: pqtls.BufferImmediate, Samples: 7, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		amp := float64(r.ServerBytes) / float64(r.ClientBytes)
		cpu := float64(r.ServerCPU) / float64(r.ClientCPU)
		fmt.Printf("%-12s %9dB %9dB %13.1fx %13.1fx\n", s, r.ClientBytes, r.ServerBytes, amp, cpu)
		if amp > worst {
			worst, worstName = amp, s
		}
	}
	fmt.Println()
	fmt.Printf("worst amplification: %.1fx (%s) — QUIC caps amplification at 3x\n", worst, worstName)
	fmt.Println("mitigations: prefer compact SAs (Falcon), validate source addresses,")
	fmt.Println("and rate-limit handshakes per client (the paper's Section 5.5).")
}
