package tls13

import (
	"cmp"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"pqtls/internal/kem"
	"pqtls/internal/pki"
	"pqtls/internal/sig"
	"pqtls/internal/wire"
)

// Client is a sans-IO TLS 1.3 client handshake. Records are consumed
// incrementally (per transport arrival), so decapsulation can overlap with
// the server still computing its signature — the effect Section 5.2 of the
// paper measures.
type Client struct {
	cfg *Config
	kem kem.KEM
	ks  *keySchedule

	kemPriv []byte

	// HRR state: the first ClientHello and its bytes, and whether a retry
	// already happened.
	ch1     *clientHello
	ch1Msg  []byte
	retried bool

	sendHC   *halfConn // client handshake traffic
	recvHC   *halfConn // server handshake traffic
	ticketHC *halfConn // server application traffic, for NewSessionTicket

	state      clientState
	buf        []byte // decrypted, unparsed handshake bytes
	rawBuf     []byte // plaintext record bytes before ServerHello completes
	retryOut   []Record
	retryGroup uint16
	done       bool
	helloSent  time.Time // set by ClientHandshake

	// ServerCert is the verified leaf certificate after completion.
	ServerCert *pki.Certificate
}

type clientState int

const (
	stateAwaitSH clientState = iota
	stateAwaitEE
	stateAwaitCert
	stateAwaitCV
	stateAwaitFin
	stateDone
)

// NewClient validates the configuration and prepares a handshake.
func NewClient(cfg *Config) (*Client, error) {
	k, err := kem.ByName(cfg.KEMName)
	if err != nil {
		return nil, err
	}
	if cfg.Roots == nil {
		return nil, errors.New("tls13: client requires a root pool")
	}
	return &Client{cfg: cfg, kem: k, ks: newKeySchedule()}, nil
}

// Start generates the key share and returns the ClientHello flight. It may
// be called once per Client.
func (c *Client) Start() ([]Record, error) {
	if c.ch1Msg != nil {
		return nil, errors.New("tls13: Start called twice")
	}
	rng := cmp.Or(c.cfg.Rand, rand.Reader)
	endPhase := c.cfg.phase(PhaseClientHello)
	defer endPhase()
	endKeygen := c.cfg.phase(PhaseKEMKeygen)
	pub, priv, err := c.kem.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("tls13: key share generation: %w", err)
	}
	c.cfg.charge(OpKEMKeygen, c.kem.Name())
	endKeygen()
	c.kemPriv = priv

	group, err := GroupID(c.cfg.KEMName)
	if err != nil {
		return nil, err
	}
	sigAlg, err := SigID(c.cfg.SigName)
	if err != nil {
		return nil, err
	}
	groups := []uint16{group}
	for _, name := range c.cfg.SupportedKEMs {
		id, err := GroupID(name)
		if err != nil {
			return nil, err
		}
		if id != group {
			groups = append(groups, id)
		}
	}
	ch := &clientHello{
		serverName: c.cfg.ServerName,
		groups:     groups,
		sigAlgs:    []uint16{sigAlg},
		keyShares:  []keyShare{{group: group, data: pub}},
	}
	if _, err := io.ReadFull(rng, ch.random[:]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rng, ch.sessionID[:]); err != nil {
		return nil, err
	}
	c.ch1 = ch
	msg := c.marshalHello(ch, nil)
	c.ch1Msg = msg
	c.ks.addMessage(msg)
	return []Record{{Type: RecordHandshake, Payload: msg}}, nil
}

// marshalHello marshals ch and, when resuming, offers the session's PSK.
// Its binder authenticates the transcript before ch (prior: nil, or
// message_hash(CH1) ‖ HelloRetryRequest) and ch up to the binders list
// (RFC 8446 §4.2.11.2), so it is zero until that prefix is marshaled.
func (c *Client) marshalHello(ch *clientHello, prior []byte) []byte {
	sess := c.cfg.Session
	if sess == nil {
		return ch.marshal()
	}
	ch.psk, ch.pskIdentity, ch.pskBinder = true, sess.Ticket, make([]byte, sha256.Size)
	msg := ch.marshal()
	copy(msg[len(msg)-sha256.Size:], computeBinder(sess.PSK, prior, msg[:len(msg)-binderSuffixLen]))
	return msg
}

// retryHello answers a HelloRetryRequest: regenerate the key share for the
// server-selected group and resend the first ClientHello with only that
// share replaced (RFC 8446 §4.1.2), re-offering any PSK, with the
// transcript restarted per RFC 8446 §4.4.1.
func (c *Client) retryHello(hrrMsg []byte, group uint16) ([]Record, error) {
	if c.retried {
		return nil, alertf(AlertUnexpectedMessage, "tls13: second HelloRetryRequest")
	}
	c.retried = true
	// The group must be one offered without a share (RFC 8446 §4.2.8).
	name, ok := groupName(group)
	if !ok || name == c.cfg.KEMName || !slices.Contains(c.cfg.SupportedKEMs, name) {
		return nil, alertf(AlertIllegalParameter, "tls13: HRR selected group %#04x, not offered without a share", group)
	}
	k, err := kem.ByName(name)
	if err != nil {
		return nil, err
	}
	rng := cmp.Or(c.cfg.Rand, rand.Reader)
	pub, priv, err := k.GenerateKey(rng)
	c.cfg.charge(OpKEMKeygen, k.Name())
	if err != nil {
		return nil, fmt.Errorf("tls13: HRR key share generation: %w", err)
	}
	c.kem = k
	c.kemPriv = priv
	c.retryGroup = group

	ch := *c.ch1
	ch.keyShares = []keyShare{{group: group, data: pub}}
	prior := append(messageHash(c.ch1Msg), hrrMsg...)
	msg := c.marshalHello(&ch, prior)
	c.ks = newKeySchedule()
	c.ks.addMessage(prior)
	c.ks.addMessage(msg)
	return []Record{{Type: RecordHandshake, Payload: msg}}, nil
}

// Consume processes arriving server records. It returns the client's final
// flight (ChangeCipherSpec + Finished) once the server flight is complete.
func (c *Client) Consume(records []Record) (out []Record, done bool, err error) {
	for _, rec := range records {
		switch rec.Type {
		case RecordChangeCipherSpec:
			continue
		case RecordAlert:
			return nil, false, parseAlert(rec)
		case RecordHandshake:
			if c.state != stateAwaitSH {
				return nil, false, alertf(AlertUnexpectedMessage, "tls13: plaintext handshake record after ServerHello")
			}
			c.rawBuf = append(c.rawBuf, rec.Payload...)
			if err := c.tryProcessServerHello(); err != nil {
				return nil, false, err
			}
		case RecordApplicationData:
			if c.state == stateAwaitSH {
				return nil, false, alertf(AlertUnexpectedMessage, "tls13: encrypted record before ServerHello")
			}
			endRead := c.cfg.phase(PhaseRecordRead)
			innerType, plaintext, err := c.recvHC.open(rec)
			endRead()
			if err != nil {
				return nil, false, err
			}
			if innerType != RecordHandshake {
				return nil, false, alertf(AlertUnexpectedMessage, "tls13: inner type %d in server flight", innerType)
			}
			c.buf = append(c.buf, plaintext...)
			if err := c.drainMessages(); err != nil {
				return nil, false, err
			}
		default:
			return nil, false, alertf(AlertUnexpectedMessage, "tls13: unknown record type %d", rec.Type)
		}
	}
	if c.state == stateDone && !c.done {
		c.done = true
		return c.finalFlight()
	}
	out, c.retryOut = c.retryOut, nil
	return out, false, nil
}

// tryProcessServerHello parses the SH once fully buffered and runs the
// decapsulation + key derivation. On a HelloRetryRequest it prepares the
// retry flight in c.retryOut instead.
func (c *Client) tryProcessServerHello() error {
	typ, body, rest, ok := parseHandshakeMsg(c.rawBuf)
	if !ok {
		return nil // wait for more bytes
	}
	// Error paths below abandon the open phase: the handshake (and with it
	// the trace) is discarded on error, and Hooks implementations tolerate
	// unclosed phases.
	endPhase := c.cfg.phase(PhaseServerHello)
	if typ != typeServerHello {
		return alertf(AlertUnexpectedMessage, "tls13: expected ServerHello, got type %d", typ)
	}
	if len(rest) != 0 {
		return errNotOnRecordBoundary
	}
	sh, err := parseServerHello(body)
	if err != nil {
		return err
	}
	if sh.sessionID != c.ch1.sessionID {
		return alertf(AlertIllegalParameter, "tls13: ServerHello does not echo the session id")
	}
	full := c.rawBuf
	c.rawBuf = nil
	if sh.hrr {
		endPhase()
		out, err := c.retryHello(full, sh.group)
		if err != nil {
			return err
		}
		c.retryOut = out
		return nil
	}
	wantGroup, _ := GroupID(c.cfg.KEMName)
	if c.retried {
		wantGroup = c.retryGroup
	}
	if sh.group != wantGroup {
		return alertf(AlertIllegalParameter, "tls13: server selected group %#04x, want %#04x", sh.group, wantGroup)
	}
	c.ks.addMessage(full)
	endPhase()

	// Decapsulate: the client-side KA cost of phase B.
	endDecap := c.cfg.phase(PhaseKEMDecap)
	ss, err := c.kem.Decapsulate(c.kemPriv, sh.keyShare)
	if err != nil {
		return alertf(AlertIllegalParameter, "tls13: decapsulation: %w", err)
	}
	c.cfg.charge(OpKEMDecaps, c.kem.Name())
	endDecap()
	if c.cfg.Session != nil {
		// psk_dhe_ke: the early secret absorbs the resumption PSK.
		c.ks.setEarlySecret(c.cfg.Session.PSK)
	}
	c.ks.setSharedSecret(ss)
	recvKey, recvIV := c.ks.trafficKeys(c.ks.serverHSTraffic[:])
	c.recvHC, err = newHalfConn(recvKey, recvIV)
	if err != nil {
		return err
	}
	sendKey, sendIV := c.ks.trafficKeys(c.ks.clientHSTraffic[:])
	c.sendHC, err = newHalfConn(sendKey, sendIV)
	if err != nil {
		return err
	}
	c.state = stateAwaitEE
	return nil
}

// drainMessages parses complete handshake messages from the decrypted
// buffer and advances the state machine.
func (c *Client) drainMessages() error {
	for {
		typ, body, rest, ok := parseHandshakeMsg(c.buf)
		if !ok {
			return nil
		}
		if err := c.handleMessage(typ, body, c.buf[:len(c.buf)-len(rest)]); err != nil {
			return err
		}
		c.buf = rest
		if c.state == stateDone && len(c.buf) != 0 {
			return errNotOnRecordBoundary
		}
	}
}

func (c *Client) handleMessage(typ uint8, body, full []byte) error {
	switch c.state {
	case stateAwaitEE:
		if typ != typeEncryptedExts {
			return alertf(AlertUnexpectedMessage, "tls13: expected EncryptedExtensions, got type %d", typ)
		}
		c.ks.addMessage(full)
		if c.cfg.Session != nil {
			// PSK handshakes carry no Certificate or CertificateVerify.
			c.state = stateAwaitFin
		} else {
			c.state = stateAwaitCert
		}
		return nil

	case stateAwaitCert:
		if typ != typeCertificate {
			return alertf(AlertUnexpectedMessage, "tls13: expected Certificate, got type %d", typ)
		}
		defer c.cfg.phase(PhaseCertVerify)()
		rawCerts, err := parseCertificate(body)
		if err != nil {
			return err
		}
		chain := make([]*pki.Certificate, len(rawCerts))
		for i, raw := range rawCerts {
			cert, err := pki.Unmarshal(raw)
			if err != nil {
				return alertf(AlertBadCertificate, "tls13: certificate %d: %w", i, err)
			}
			chain[i] = cert
		}
		leaf, err := c.cfg.Roots.Verify(chain)
		if err != nil {
			return alertf(AlertBadCertificate, "tls13: certificate verification: %w", err)
		}
		// Chain validation runs one signature verification per certificate.
		for _, cert := range chain {
			c.cfg.charge(OpSigVerify, cert.Algorithm)
		}
		if c.cfg.ServerName != "" && leaf.Subject != c.cfg.ServerName {
			return alertf(AlertBadCertificate, "tls13: certificate subject %q does not match %q", leaf.Subject, c.cfg.ServerName)
		}
		c.ServerCert = leaf
		c.ks.addMessage(full)
		c.state = stateAwaitCV
		return nil

	case stateAwaitCV:
		if typ != typeCertificateVerify {
			return alertf(AlertUnexpectedMessage, "tls13: expected CertificateVerify, got type %d", typ)
		}
		defer c.cfg.phase(PhaseCVVerify)()
		sigAlg, signature, err := parseCertVerify(body)
		if err != nil {
			return err
		}
		name, ok := sigName(sigAlg)
		if !ok || name != c.ServerCert.Algorithm {
			return alertf(AlertIllegalParameter, "tls13: CertificateVerify algorithm %#04x does not match certificate key %q",
				sigAlg, c.ServerCert.Algorithm)
		}
		scheme, err := sig.ByName(name)
		if err != nil {
			return err
		}
		content := certVerifyContent(c.ks.transcriptHash())
		okSig := scheme.Verify(c.ServerCert.PublicKey, content, signature)
		c.cfg.charge(OpSigVerify, name)
		if !okSig {
			return alertf(AlertDecryptError, "tls13: CertificateVerify signature invalid")
		}
		c.ks.addMessage(full)
		c.state = stateAwaitFin
		return nil

	case stateAwaitFin:
		if typ != typeFinished {
			return alertf(AlertUnexpectedMessage, "tls13: expected Finished, got type %d", typ)
		}
		defer c.cfg.phase(PhaseFinVerify)()
		want := c.ks.finishedMsg(c.ks.serverHSTraffic[:], c.ks.transcriptHash())
		if !hmac.Equal(body, want) {
			return alertf(AlertDecryptError, "tls13: server Finished verification failed")
		}
		c.ks.addMessage(full)
		c.state = stateDone
		return nil

	default:
		return alertf(AlertUnexpectedMessage, "tls13: message type %d in state %d", typ, c.state)
	}
}

// finalFlight builds the client's ChangeCipherSpec + Finished.
func (c *Client) finalFlight() ([]Record, bool, error) {
	defer c.cfg.phase(PhaseFinSend)()
	mac := c.ks.finishedMsg(c.ks.clientHSTraffic[:], c.ks.transcriptHash())
	finMsg := handshakeMsg(typeFinished, len(mac), func(b *wire.Builder) { b.AddBytes(mac) })
	c.ks.deriveMaster()
	rec, err := c.sendHC.seal(RecordHandshake, finMsg)
	if err != nil {
		return nil, false, err
	}
	// The paper notes client CCS and Finished always share one IP packet;
	// they are one flush here.
	return []Record{{Type: RecordChangeCipherSpec, Payload: []byte{1}}, rec}, true, nil
}

// Done reports whether the handshake completed.
func (c *Client) Done() bool { return c.done }

// AppTrafficSecrets returns the application traffic secrets (client, server)
// once the handshake is complete.
func (c *Client) AppTrafficSecrets() (client, server []byte) {
	return c.ks.clientAppTraffic[:], c.ks.serverAppTraffic[:]
}
