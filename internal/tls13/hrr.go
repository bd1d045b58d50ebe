package tls13

import (
	"crypto/sha256"

	"pqtls/internal/wire"
)

// HelloRetryRequest support: the 2-RTT fallback the paper explicitly
// configured away ("we focus on 1-RTT handshakes and configured TLS such
// that the 2-RTT fallback never occurred"). Implementing it lets the
// harness quantify exactly what that configuration avoided: an extra round
// trip plus a second client key generation (see harness.RunHRRComparison).

// hrrRandom is RFC 8446's special ServerHello.random value marking a
// HelloRetryRequest (SHA-256 of "HelloRetryRequest").
var hrrRandom = [32]byte{
	0xCF, 0x21, 0xAD, 0x74, 0xE5, 0x9A, 0x61, 0x11,
	0xBE, 0x1D, 0x8C, 0x02, 0x1E, 0x65, 0xB8, 0x91,
	0xC2, 0xA2, 0x11, 0x16, 0x7A, 0xBB, 0x8C, 0x5E,
	0x07, 0x9E, 0x09, 0xE2, 0xC8, 0xA8, 0x33, 0x9C,
}

// messageHash replaces the first ClientHello in the transcript per
// RFC 8446 §4.4.1: Transcript-Hash(CH1) wrapped in a synthetic
// message_hash handshake message.
func messageHash(ch1 []byte) []byte {
	digest := sha256.Sum256(ch1)
	return handshakeMsg(typeMessageHash, len(digest), func(b *wire.Builder) { b.AddBytes(digest[:]) })
}
