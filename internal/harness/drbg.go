package harness

import (
	"fmt"

	"pqtls/internal/drbg"
)

// newSampleDRBG derives the stream that seeds both endpoints of one
// simulated handshake from its (suite, link, seed) coordinate, so key
// shares, nonces and ECDSA's variable-length signatures are the same for
// any worker count and in any process. The harness is not a production TLS
// endpoint, so deterministic randomness is a feature here, not a
// vulnerability.
func newSampleDRBG(kem, sig, link string, seed int64) *drbg.Reader {
	return drbg.Derive(fmt.Sprintf("pqtls-sample|%s|%s|%s|%d", kem, sig, link, seed))
}

// newCredentialDRBG derives the stream that keys one credential-cache
// entry's CA hierarchy. Seeding the key generation (together with the sig
// package's derandomized signing) makes certificate chains identical from
// process to process, so regenerated tables cannot pick up per-run
// signature-length jitter from the chain.
func newCredentialDRBG(sigName string, depth int) *drbg.Reader {
	return drbg.Derive(fmt.Sprintf("pqtls-credentials|%s|%d", sigName, depth))
}
