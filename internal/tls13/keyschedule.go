package tls13

import (
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/sha256"
	"hash"
)

// The TLS 1.3 key schedule (RFC 8446 §7.1) for the SHA-256 suite.
//
// The package-level hkdf* functions below are crypto/hkdf with the TLS
// labels and defaults, for cold paths that run outside a handshake's
// keySchedule (PSK binder keys in session.go). The keySchedule methods
// further down are the per-handshake hot path, which crypto/hkdf cannot
// serve without allocating: one reusable HMAC engine plus fixed-size
// scratch on the handshake state make every derivation — extract,
// expand-label, traffic keys, finished MACs, the transcript hash —
// allocation-free in steady state.

// hkdfExtract is HKDF-Extract with the schedule's defaults: an absent salt
// or IKM is 32 zero bytes (RFC 8446 §7.1), not the empty string.
func hkdfExtract(salt, ikm []byte) []byte {
	if salt == nil {
		salt = zero32[:]
	}
	if ikm == nil {
		ikm = zero32[:]
	}
	prk, err := hkdf.Extract(sha256.New, ikm, salt)
	if err != nil {
		panic("tls13: hkdf extract: " + err.Error())
	}
	return prk
}

// hkdfExpandLabel implements HKDF-Expand-Label with the "tls13 " prefix.
func hkdfExpandLabel(secret []byte, label string, context []byte, length int) []byte {
	full := "tls13 " + label
	info := make([]byte, 0, 4+len(full)+len(context))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(len(full)))
	info = append(info, full...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	out, err := hkdf.Expand(sha256.New, secret, string(info), length)
	if err != nil {
		panic("tls13: hkdf expand: " + err.Error())
	}
	return out
}

// deriveSecret is Derive-Secret(secret, label, transcript).
func deriveSecret(secret []byte, label string, transcriptHash []byte) []byte {
	return hkdfExpandLabel(secret, label, transcriptHash, sha256.Size)
}

// finishedMAC computes the Finished verify_data for a traffic secret.
func finishedMAC(trafficSecret, transcriptHash []byte) []byte {
	finishedKey := hkdfExpandLabel(trafficSecret, "finished", nil, sha256.Size)
	m := hmac.New(sha256.New, finishedKey)
	m.Write(transcriptHash)
	return m.Sum(nil)
}

// emptyHashSum is SHA-256(""), the Derive-Secret transcript for the two
// "derived" steps; noPSKEarly is HKDF-Extract(0, 0), the early secret of
// every non-resumed handshake. Both are schedule constants.
var (
	emptyHashSum = sha256.Sum256(nil)
	noPSKEarly   [sha256.Size]byte
	zero32       [sha256.Size]byte
)

func init() {
	copy(noPSKEarly[:], hkdfExtract(nil, nil))
}

func emptyHash() []byte {
	return emptyHashSum[:]
}

// hmacSHA256 is a reusable HMAC-SHA-256 engine. Re-keying rewrites the two
// padded key blocks in place and resets the persistent digests, so
// steady-state use costs zero allocations: hmac.New's per-instance
// allocations are paid once per handshake instead of once per derivation.
type hmacSHA256 struct {
	inner, outer hash.Hash
	ipad, opad   [64]byte
	sum          [sha256.Size]byte // inner-digest staging
}

// setKey keys the engine and starts the inner digest. The key is hashed
// first when it exceeds the SHA-256 block size, per FIPS 198.
func (m *hmacSHA256) setKey(key []byte) {
	if m.inner == nil {
		m.inner = sha256.New()
		m.outer = sha256.New()
	}
	if len(key) > len(m.ipad) {
		m.inner.Reset()
		m.inner.Write(key)
		key = m.inner.Sum(m.sum[:0])
	}
	for i := range m.ipad {
		m.ipad[i] = 0x36
		m.opad[i] = 0x5c
	}
	for i, b := range key {
		m.ipad[i] ^= b
		m.opad[i] ^= b
	}
	m.inner.Reset()
	m.inner.Write(m.ipad[:])
}

func (m *hmacSHA256) write(p []byte) {
	m.inner.Write(p)
}

// finish appends the 32-byte MAC into out's backing array, which must have
// capacity for it (callers pass field[:0] of a [32]byte scratch).
func (m *hmacSHA256) finish(out []byte) {
	tag := m.inner.Sum(m.sum[:0])
	m.outer.Reset()
	m.outer.Write(m.opad[:])
	m.outer.Write(tag)
	m.outer.Sum(out)
}

// keySchedule tracks the running secrets and transcript of one handshake.
// Secrets are fixed-size arrays and every derivation runs through the
// embedded hmacSHA256 engine and the scratch fields, so the per-message
// schedule work after construction performs no heap allocation.
type keySchedule struct {
	transcript hash.Hash
	mac        hmacSHA256

	earlySecret     [sha256.Size]byte
	handshakeSecret [sha256.Size]byte
	masterSecret    [sha256.Size]byte

	clientHSTraffic  [sha256.Size]byte
	serverHSTraffic  [sha256.Size]byte
	clientAppTraffic [sha256.Size]byte
	serverAppTraffic [sha256.Size]byte

	th    [sha256.Size]byte // transcriptHash output; valid until the next call
	tmp   [sha256.Size]byte // "derived" / finished-key intermediate
	block [sha256.Size]byte // expandLabel output block before truncation
	fin   [sha256.Size]byte // finishedMsg output scratch
	keyS  [16]byte          // trafficKeys outputs; valid until the next call
	ivS   [12]byte
	info  [80]byte // HKDF-Expand-Label info; largest real info is 56 bytes
}

func newKeySchedule() *keySchedule {
	ks := &keySchedule{transcript: sha256.New()}
	ks.earlySecret = noPSKEarly
	return ks
}

// setEarlySecret replaces the no-PSK early secret with HKDF-Extract(0, psk)
// for a resumed handshake.
func (ks *keySchedule) setEarlySecret(psk []byte) {
	ks.extract(&ks.earlySecret, nil, psk)
}

// addMessage absorbs a handshake message (with its 4-byte header) into the
// transcript.
func (ks *keySchedule) addMessage(msg []byte) {
	ks.transcript.Write(msg)
}

// transcriptHash returns the running transcript hash in scratch owned by ks;
// the slice is valid until the next transcriptHash call.
func (ks *keySchedule) transcriptHash() []byte {
	ks.transcript.Sum(ks.th[:0])
	return ks.th[:]
}

// extract is HKDF-Extract into a caller-owned 32-byte array; nil salt or ikm
// mean 32 zero bytes, as in the RFC 8446 schedule diagram.
func (ks *keySchedule) extract(out *[sha256.Size]byte, salt, ikm []byte) {
	if salt == nil {
		salt = zero32[:]
	}
	if ikm == nil {
		ikm = zero32[:]
	}
	ks.mac.setKey(salt)
	ks.mac.write(ikm)
	ks.mac.finish(out[:0])
}

// expandLabel is HKDF-Expand-Label for output lengths up to one SHA-256
// block (all the schedule ever needs), writing len(out) bytes into out.
func (ks *keySchedule) expandLabel(out []byte, secret []byte, label string, context []byte) {
	info := ks.info[:0]
	info = append(info, byte(len(out)>>8), byte(len(out)))
	info = append(info, byte(len("tls13 ")+len(label)))
	info = append(info, "tls13 "...)
	info = append(info, label...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	info = append(info, 1) // single-block HKDF counter
	ks.mac.setKey(secret)
	ks.mac.write(info)
	ks.mac.finish(ks.block[:0])
	copy(out, ks.block[:len(out)])
}

// deriveSecretInto is Derive-Secret(secret, label, th) into a caller-owned
// array.
func (ks *keySchedule) deriveSecretInto(out *[sha256.Size]byte, secret []byte, label string, th []byte) {
	ks.expandLabel(out[:], secret, label, th)
}

// setSharedSecret mixes the (EC)DHE/KEM shared secret in and derives the
// handshake traffic secrets from the transcript through ServerHello.
func (ks *keySchedule) setSharedSecret(ss []byte) {
	ks.deriveSecretInto(&ks.tmp, ks.earlySecret[:], "derived", emptyHashSum[:])
	ks.extract(&ks.handshakeSecret, ks.tmp[:], ss)
	th := ks.transcriptHash()
	ks.deriveSecretInto(&ks.clientHSTraffic, ks.handshakeSecret[:], "c hs traffic", th)
	ks.deriveSecretInto(&ks.serverHSTraffic, ks.handshakeSecret[:], "s hs traffic", th)
}

// deriveMaster computes the master secret and application traffic secrets
// from the transcript through server Finished.
func (ks *keySchedule) deriveMaster() {
	ks.deriveSecretInto(&ks.tmp, ks.handshakeSecret[:], "derived", emptyHashSum[:])
	ks.extract(&ks.masterSecret, ks.tmp[:], nil)
	th := ks.transcriptHash()
	ks.deriveSecretInto(&ks.clientAppTraffic, ks.masterSecret[:], "c ap traffic", th)
	ks.deriveSecretInto(&ks.serverAppTraffic, ks.masterSecret[:], "s ap traffic", th)
}

// trafficKeys derives the AEAD key and IV from a traffic secret into scratch
// owned by ks; the slices are valid until the next trafficKeys call.
// (halfConn copies both into its own state immediately.)
func (ks *keySchedule) trafficKeys(secret []byte) (key, iv []byte) {
	ks.expandLabel(ks.keyS[:], secret, "key", nil)
	ks.expandLabel(ks.ivS[:], secret, "iv", nil)
	return ks.keyS[:], ks.ivS[:]
}

// finishedMACInto computes the Finished verify_data for a traffic secret
// into a caller-owned array.
func (ks *keySchedule) finishedMACInto(out *[sha256.Size]byte, trafficSecret, th []byte) {
	ks.expandLabel(ks.tmp[:], trafficSecret, "finished", nil)
	ks.mac.setKey(ks.tmp[:])
	ks.mac.write(th)
	ks.mac.finish(out[:0])
}

// finishedMsg builds the Finished verify_data for a traffic secret in
// scratch owned by ks; the slice is valid until the next finishedMsg call.
func (ks *keySchedule) finishedMsg(trafficSecret, th []byte) []byte {
	ks.finishedMACInto(&ks.fin, trafficSecret, th)
	return ks.fin[:]
}

// KeyScheduleKernel exposes one full hot-path key-schedule derivation —
// transcript absorb, handshake and master secret extraction, four traffic
// secrets, traffic keys, and a Finished MAC — reusing all internal state
// across Run calls, for benchmarks and the zero-alloc gate
// (TestKeyScheduleZeroAlloc).
type KeyScheduleKernel struct {
	ks  keySchedule
	fin [sha256.Size]byte
}

// NewKeyScheduleKernel returns a reusable kernel instance.
func NewKeyScheduleKernel() *KeyScheduleKernel {
	return &KeyScheduleKernel{ks: keySchedule{transcript: sha256.New()}}
}

// Run executes the derivation over one shared secret and transcript message
// and returns a byte folded from the outputs to keep the work observable.
func (k *KeyScheduleKernel) Run(ss, msg []byte) byte {
	ks := &k.ks
	ks.transcript.Reset()
	ks.earlySecret = noPSKEarly
	ks.addMessage(msg)
	ks.setSharedSecret(ss)
	key, iv := ks.trafficKeys(ks.serverHSTraffic[:])
	out := key[0] ^ iv[0]
	ks.addMessage(msg)
	ks.deriveMaster()
	ks.finishedMACInto(&k.fin, ks.serverHSTraffic[:], ks.transcriptHash())
	return out ^ k.fin[0] ^ ks.clientAppTraffic[0]
}
