package tls13

import (
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"pqtls/internal/kem"
	"pqtls/internal/pki"
	"pqtls/internal/sig"
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

	// HRR state: the first ClientHello's bytes and identifiers, and
	// whether a retry already happened.
	ch1Msg    []byte
	sessionID [32]byte
	retried   bool

	sendHC *halfConn // client handshake traffic
	recvHC *halfConn // server handshake traffic

	state      clientState
	buf        []byte // decrypted, unparsed handshake bytes
	rawBuf     []byte // plaintext record bytes before ServerHello completes
	retryOut   []Record
	retryGroup uint16
	resuming   bool
	done       bool

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

// Start generates the key share and returns the ClientHello flight.
func (c *Client) Start() ([]Record, error) {
	rng := c.cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}
	endPhase := c.cfg.phase(PhaseClientHello)
	defer endPhase()
	endKeygen := c.cfg.phase(PhaseKEMKeygen)
	endCrypto := c.cfg.span(LibCrypto)
	pub, priv, err := c.kem.GenerateKey(rng)
	if err != nil {
		endCrypto()
		return nil, fmt.Errorf("tls13: key share generation: %w", err)
	}
	c.cfg.charge(OpKEMKeygen, c.kem.Name())
	endCrypto()
	endKeygen()
	c.kemPriv = priv

	endSSL := c.cfg.span(LibSSL)
	defer endSSL()
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
		group:      group,
		groups:     groups,
		sigAlg:     sigAlg,
		keyShare:   pub,
	}
	if _, err := io.ReadFull(rng, ch.random[:]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(rng, ch.sessionID[:]); err != nil {
		return nil, err
	}
	c.sessionID = ch.sessionID
	msg := ch.marshal()
	if c.cfg.Session != nil {
		msg = appendPSKExtension(msg, c.cfg.Session)
		c.resuming = true
	}
	c.ch1Msg = msg
	c.ks.addMessage(msg)
	return []Record{{Type: RecordHandshake, Payload: msg}}, nil
}

// retryHello answers a HelloRetryRequest: regenerate the key share for the
// server-selected group and rebuild the ClientHello, restarting the
// transcript per RFC 8446 §4.4.1.
func (c *Client) retryHello(hrrMsg []byte, group uint16) ([]Record, error) {
	if c.retried {
		return nil, errors.New("tls13: second HelloRetryRequest")
	}
	c.retried = true
	name, ok := groupName(group)
	if !ok {
		return nil, fmt.Errorf("tls13: HRR selected unknown group %#04x", group)
	}
	offered := name == c.cfg.KEMName
	for _, n := range c.cfg.SupportedKEMs {
		if n == name {
			offered = true
		}
	}
	if !offered {
		return nil, fmt.Errorf("tls13: HRR selected unoffered group %s", name)
	}
	k, err := kem.ByName(name)
	if err != nil {
		return nil, err
	}
	rng := c.cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}
	endCrypto := c.cfg.span(LibCrypto)
	pub, priv, err := k.GenerateKey(rng)
	c.cfg.charge(OpKEMKeygen, k.Name())
	endCrypto()
	if err != nil {
		return nil, fmt.Errorf("tls13: HRR key share generation: %w", err)
	}
	c.kem = k
	c.kemPriv = priv
	c.retryGroup = group

	sigAlg, err := SigID(c.cfg.SigName)
	if err != nil {
		return nil, err
	}
	ch := &clientHello{
		serverName: c.cfg.ServerName,
		group:      group,
		groups:     []uint16{group},
		sigAlg:     sigAlg,
		keyShare:   pub,
		sessionID:  c.sessionID,
	}
	if _, err := io.ReadFull(rng, ch.random[:]); err != nil {
		return nil, err
	}
	msg := ch.marshal()
	c.ks = newKeySchedule()
	c.ks.addMessage(messageHash(c.ch1Msg))
	c.ks.addMessage(hrrMsg)
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
				return nil, false, errors.New("tls13: unexpected plaintext handshake record")
			}
			c.rawBuf = append(c.rawBuf, rec.Payload...)
			if err := c.tryProcessServerHello(); err != nil {
				return nil, false, err
			}
		case RecordApplicationData:
			if c.state == stateAwaitSH {
				return nil, false, errors.New("tls13: encrypted record before ServerHello")
			}
			endRead := c.cfg.phase(PhaseRecordRead)
			endCrypto := c.cfg.span(LibCrypto)
			innerType, plaintext, err := c.recvHC.open(rec)
			endCrypto()
			endRead()
			if err != nil {
				return nil, false, err
			}
			if innerType != RecordHandshake {
				return nil, false, fmt.Errorf("tls13: unexpected inner type %d", innerType)
			}
			c.buf = append(c.buf, plaintext...)
			if err := c.drainMessages(); err != nil {
				return nil, false, err
			}
		default:
			return nil, false, fmt.Errorf("tls13: unknown record type %d", rec.Type)
		}
	}
	if c.state == stateDone && !c.done {
		c.done = true
		return c.finalFlight()
	}
	if c.retryOut != nil {
		out = c.retryOut
		c.retryOut = nil
		return out, false, nil
	}
	return nil, false, nil
}

// tryProcessServerHello parses the SH once fully buffered and runs the
// decapsulation + key derivation. On a HelloRetryRequest it prepares the
// retry flight in c.retryOut instead.
func (c *Client) tryProcessServerHello() error {
	if len(c.rawBuf) < 4 {
		return nil
	}
	n := int(c.rawBuf[1])<<16 | int(c.rawBuf[2])<<8 | int(c.rawBuf[3])
	if len(c.rawBuf) < 4+n {
		return nil // wait for more bytes
	}
	// Error paths below abandon the open phase: the handshake (and with it
	// the trace) is discarded on error, and Hooks implementations tolerate
	// unclosed spans.
	endPhase := c.cfg.phase(PhaseServerHello)
	endSSL := c.cfg.span(LibSSL)
	typ, body, rest, err := parseHandshakeMsg(c.rawBuf)
	if err != nil {
		endSSL()
		return err
	}
	if typ != typeServerHello {
		endSSL()
		return fmt.Errorf("tls13: expected ServerHello, got type %d", typ)
	}
	if isHRR(body) {
		group, err := parseHRRGroup(body)
		if err != nil {
			endSSL()
			return err
		}
		full := c.rawBuf[:4+n]
		c.rawBuf = rest
		endSSL()
		endPhase()
		out, err := c.retryHello(full, group)
		if err != nil {
			return err
		}
		c.retryOut = out
		return nil
	}
	sh, err := parseServerHello(body)
	if err != nil {
		endSSL()
		return err
	}
	wantGroup, _ := GroupID(c.cfg.KEMName)
	if c.retried {
		wantGroup = c.retryGroup
	}
	if sh.group != wantGroup {
		endSSL()
		return fmt.Errorf("tls13: server selected group %#04x, want %#04x", sh.group, wantGroup)
	}
	c.ks.addMessage(c.rawBuf[:4+n])
	c.rawBuf = rest
	endSSL()
	endPhase()

	// Decapsulate: the client-side KA cost of phase B.
	endDecap := c.cfg.phase(PhaseKEMDecap)
	endCrypto := c.cfg.span(LibCrypto)
	ss, err := c.kem.Decapsulate(c.kemPriv, sh.keyShare)
	if err != nil {
		endCrypto()
		return fmt.Errorf("tls13: decapsulation: %w", err)
	}
	c.cfg.charge(OpKEMDecaps, c.kem.Name())
	endDecap()
	if c.resuming {
		// psk_dhe_ke: the early secret absorbs the resumption PSK.
		c.ks.setEarlySecret(c.cfg.Session.PSK)
	}
	c.ks.setSharedSecret(ss)
	recvKey, recvIV := c.ks.trafficKeys(c.ks.serverHSTraffic[:])
	c.recvHC, err = newHalfConn(recvKey, recvIV)
	if err != nil {
		endCrypto()
		return err
	}
	sendKey, sendIV := c.ks.trafficKeys(c.ks.clientHSTraffic[:])
	c.sendHC, err = newHalfConn(sendKey, sendIV)
	if err != nil {
		endCrypto()
		return err
	}
	endCrypto()
	c.state = stateAwaitEE
	return nil
}

// drainMessages parses complete handshake messages from the decrypted
// buffer and advances the state machine.
func (c *Client) drainMessages() error {
	for {
		if len(c.buf) < 4 {
			return nil
		}
		n := int(c.buf[1])<<16 | int(c.buf[2])<<8 | int(c.buf[3])
		if len(c.buf) < 4+n {
			return nil
		}
		msg := c.buf[:4+n]
		typ, body, _, err := parseHandshakeMsg(msg)
		if err != nil {
			return err
		}
		if err := c.handleMessage(typ, body, msg); err != nil {
			return err
		}
		c.buf = c.buf[4+n:]
	}
}

func (c *Client) handleMessage(typ uint8, body, full []byte) error {
	switch c.state {
	case stateAwaitEE:
		if typ != typeEncryptedExts {
			return fmt.Errorf("tls13: expected EncryptedExtensions, got type %d", typ)
		}
		c.ks.addMessage(full)
		if c.resuming {
			// PSK handshakes carry no Certificate or CertificateVerify.
			c.state = stateAwaitFin
		} else {
			c.state = stateAwaitCert
		}
		return nil

	case stateAwaitCert:
		if typ != typeCertificate {
			return fmt.Errorf("tls13: expected Certificate, got type %d", typ)
		}
		defer c.cfg.phase(PhaseCertVerify)()
		endSSL := c.cfg.span(LibSSL)
		rawCerts, err := parseCertificate(body)
		endSSL()
		if err != nil {
			return err
		}
		endCrypto := c.cfg.span(LibCrypto)
		defer endCrypto()
		chain := make([]*pki.Certificate, len(rawCerts))
		for i, raw := range rawCerts {
			cert, err := pki.Unmarshal(raw)
			if err != nil {
				return fmt.Errorf("tls13: certificate %d: %w", i, err)
			}
			chain[i] = cert
		}
		leaf, err := c.cfg.Roots.Verify(chain)
		if err != nil {
			return fmt.Errorf("tls13: certificate verification: %w", err)
		}
		// Chain validation runs one signature verification per certificate.
		for _, cert := range chain {
			c.cfg.charge(OpSigVerify, cert.Algorithm)
		}
		if c.cfg.ServerName != "" && leaf.Subject != c.cfg.ServerName {
			return fmt.Errorf("tls13: certificate subject %q does not match %q", leaf.Subject, c.cfg.ServerName)
		}
		c.ServerCert = leaf
		c.ks.addMessage(full)
		c.state = stateAwaitCV
		return nil

	case stateAwaitCV:
		if typ != typeCertificateVerify {
			return fmt.Errorf("tls13: expected CertificateVerify, got type %d", typ)
		}
		defer c.cfg.phase(PhaseCVVerify)()
		sigAlg, signature, err := parseCertVerify(body)
		if err != nil {
			return err
		}
		name, ok := sigName(sigAlg)
		if !ok || name != c.ServerCert.Algorithm {
			return fmt.Errorf("tls13: CertificateVerify algorithm %#04x does not match certificate key %q",
				sigAlg, c.ServerCert.Algorithm)
		}
		scheme, err := sig.ByName(name)
		if err != nil {
			return err
		}
		endCrypto := c.cfg.span(LibCrypto)
		content := certVerifyContent(c.ks.transcriptHash())
		okSig := scheme.Verify(c.ServerCert.PublicKey, content, signature)
		c.cfg.charge(OpSigVerify, name)
		endCrypto()
		if !okSig {
			return errors.New("tls13: CertificateVerify signature invalid")
		}
		c.ks.addMessage(full)
		c.state = stateAwaitFin
		return nil

	case stateAwaitFin:
		if typ != typeFinished {
			return fmt.Errorf("tls13: expected Finished, got type %d", typ)
		}
		defer c.cfg.phase(PhaseFinVerify)()
		endCrypto := c.cfg.span(LibCrypto)
		want := c.ks.finishedMsg(c.ks.serverHSTraffic[:], c.ks.transcriptHash())
		endCrypto()
		if !hmac.Equal(body, want) {
			return errors.New("tls13: server Finished verification failed")
		}
		c.ks.addMessage(full)
		c.state = stateDone
		return nil

	default:
		return fmt.Errorf("tls13: message type %d in unexpected state %d", typ, c.state)
	}
}

// finalFlight builds the client's ChangeCipherSpec + Finished.
func (c *Client) finalFlight() ([]Record, bool, error) {
	defer c.cfg.phase(PhaseFinSend)()
	endCrypto := c.cfg.span(LibCrypto)
	mac := c.ks.finishedMsg(c.ks.clientHSTraffic[:], c.ks.transcriptHash())
	finMsg := handshakeMsg(typeFinished, mac)
	c.ks.deriveMaster()
	rec, err := c.sendHC.seal(RecordHandshake, finMsg)
	if err != nil {
		return nil, false, err
	}
	endCrypto()
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
