package tls13

import (
	"cmp"
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"pqtls/internal/kem"
	"pqtls/internal/sig"
	"pqtls/internal/wire"
)

// Flush is a group of records the server hands to the transport at one
// point in time. Offset is the cumulative CPU time the server had spent on
// the handshake when this flush became available — the quantity that lets
// the network simulation reproduce the early-ServerHello parallelism the
// paper analyzes in Section 5.2.
type Flush struct {
	Records []Record
	Offset  time.Duration
}

// Server is a sans-IO TLS 1.3 server handshake.
type Server struct {
	cfg    *Config
	kem    kem.KEM
	scheme sig.Scheme
	ks     *keySchedule

	sendHC   *halfConn // server handshake traffic (server -> client)
	recvHC   *halfConn // client handshake traffic (client -> server)
	ticketHC *halfConn // server application traffic, for NewSessionTicket

	expectedClientFin [32]byte
	resumptionPSK     []byte
	hrrSent           bool
	prior             []byte // message_hash(CH1) ‖ HRR after a retry, under a re-offered PSK's binder
	done              bool
}

// NewServer validates the configuration and prepares a handshake.
func NewServer(cfg *Config) (*Server, error) {
	k, err := kem.ByName(cfg.KEMName)
	if err != nil {
		return nil, err
	}
	s, err := sig.ByName(cfg.SigName)
	if err != nil {
		return nil, err
	}
	if len(cfg.Chain) == 0 || cfg.PrivateKey == nil {
		return nil, errors.New("tls13: server requires a certificate chain and private key")
	}
	return &Server{cfg: cfg, kem: k, scheme: s, ks: newKeySchedule()}, nil
}

// timedRecord is a record plus the compute offset at which it was ready.
type timedRecord struct {
	rec    Record
	offset time.Duration
}

// Respond consumes the ClientHello flight and produces the server's flight,
// grouped into flushes per the configured BufferPolicy.
func (s *Server) Respond(records []Record) ([]Flush, error) {
	if s.sendHC != nil {
		return nil, errors.New("tls13: Respond called after the server flight")
	}
	start := s.cfg.now()
	rng := cmp.Or(s.cfg.Rand, rand.Reader)

	// Error paths abandon the open phase: the handshake (and its trace) is
	// discarded on error, and Hooks implementations tolerate unclosed phases.
	endPhase := s.cfg.phase(PhaseCHParse)
	var chMsg []byte
	for _, rec := range records {
		if rec.Type != RecordHandshake {
			continue
		}
		chMsg = append(chMsg, rec.Payload...)
	}
	typ, body, rest, ok := parseHandshakeMsg(chMsg)
	if !ok {
		return nil, alertf(AlertDecodeError, "tls13: truncated ClientHello")
	}
	if typ != typeClientHello {
		return nil, alertf(AlertUnexpectedMessage, "tls13: expected ClientHello, got message type %d", typ)
	}
	if len(rest) != 0 {
		return nil, errNotOnRecordBoundary
	}
	ch, err := parseClientHello(body)
	if err != nil {
		return nil, err
	}
	// The server's group and scheme are fixed by its Config; it accepts the
	// ClientHello if they appear anywhere in the client's lists
	// (RFC 8446 §4.2.3, §4.2.8).
	wantGroup, err := GroupID(s.cfg.KEMName)
	if err != nil {
		return nil, err
	}
	share, ok := ch.shareFor(wantGroup)
	if !ok {
		// If the client supports our group but sent no share for it, fall
		// back to the 2-RTT HelloRetryRequest flow.
		if slices.Contains(ch.groups, wantGroup) && !s.hrrSent {
			s.hrrSent = true
			// RFC 8446 §4.4.1: the transcript restarts with a synthetic
			// message_hash of CH1 followed by the HRR.
			hrr := (&serverHello{sessionID: ch.sessionID, group: wantGroup, hrr: true}).marshal()
			s.prior = append(messageHash(chMsg), hrr...)
			s.ks.addMessage(s.prior)
			endPhase()
			return []Flush{{
				Records: []Record{{Type: RecordHandshake, Payload: hrr}},
				Offset:  s.cfg.now().Sub(start),
			}}, nil
		}
		return nil, alertf(AlertHandshakeFailure, "tls13: client sent no key share for group %#04x (%s)", wantGroup, s.cfg.KEMName)
	}
	wantSig, err := SigID(s.cfg.SigName)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(ch.sigAlgs, wantSig) {
		return nil, alertf(AlertHandshakeFailure, "tls13: client does not offer sigalg %#04x (%s)", wantSig, s.cfg.SigName)
	}
	endPhase()
	// PSK resumption: a valid ticket + binder switches to the
	// certificate-free flow.
	if ch.psk {
		endRedeem := s.cfg.phase(PhaseTicketRedeem)
		store := s.cfg.Tickets
		if store == nil {
			return nil, errNoTicketStore
		}
		psk, kemName, err := store.Open(ch.pskIdentity)
		if err != nil {
			return nil, err
		}
		if kemName != s.cfg.KEMName {
			return nil, alertf(AlertHandshakeFailure, "tls13: ticket bound to %s, server uses %s", kemName, s.cfg.KEMName)
		}
		if !hmac.Equal(computeBinder(psk, s.prior, chMsg[:4+ch.bindersOff]), ch.pskBinder) {
			return nil, alertf(AlertDecryptError, "tls13: PSK binder verification failed")
		}
		s.resumptionPSK = psk
		endRedeem()
	}
	s.ks.addMessage(chMsg)

	// Key agreement: encapsulate against the client's share.
	endEncap := s.cfg.phase(PhaseKEMEncap)
	ct, ss, err := s.kem.Encapsulate(rng, share)
	if err != nil {
		return nil, alertf(AlertIllegalParameter, "tls13: encapsulation: %w", err)
	}
	s.cfg.charge(OpKEMEncaps, s.kem.Name())
	endEncap()

	endPhase = s.cfg.phase(PhaseServerHello)
	sh := &serverHello{group: wantGroup, keyShare: ct, sessionID: ch.sessionID}
	if _, err := io.ReadFull(rng, sh.random[:]); err != nil {
		return nil, err
	}
	shMsg := sh.marshal()
	s.ks.addMessage(shMsg)
	endPhase()

	if s.resumptionPSK != nil {
		s.ks.setEarlySecret(s.resumptionPSK)
	}
	s.ks.setSharedSecret(ss)
	sendKey, sendIV := s.ks.trafficKeys(s.ks.serverHSTraffic[:])
	s.sendHC, err = newHalfConn(sendKey, sendIV)
	if err != nil {
		return nil, err
	}
	recvKey, recvIV := s.ks.trafficKeys(s.ks.clientHSTraffic[:])
	s.recvHC, err = newHalfConn(recvKey, recvIV)
	if err != nil {
		return nil, err
	}

	var timed []timedRecord
	emit := func(rec Record) {
		timed = append(timed, timedRecord{rec: rec, offset: s.cfg.now().Sub(start)})
	}
	emit(Record{Type: RecordHandshake, Payload: shMsg})
	// Middlebox-compatibility ChangeCipherSpec, as OpenSSL sends it.
	emit(Record{Type: RecordChangeCipherSpec, Payload: []byte{1}})

	// EncryptedExtensions (empty list).
	eeMsg := handshakeMsg(typeEncryptedExts, 2, func(b *wire.Builder) {
		b.AddUint16LengthPrefixed(func(*wire.Builder) {}) // no extensions
	})
	s.ks.addMessage(eeMsg)
	eeRecs, err := s.sealHandshake(eeMsg)
	if err != nil {
		return nil, err
	}
	for _, rec := range eeRecs {
		emit(rec)
	}

	// Certificate and CertificateVerify — skipped entirely on resumption,
	// which is what removes the PQ authentication cost from resumed
	// handshakes.
	if s.resumptionPSK == nil {
		endPhase = s.cfg.phase(PhaseCertWrite)
		// Marshaled once per Config; identical for every handshake (shared
		// read-only bytes, sealHandshake clones record payloads).
		certMsg := s.cfg.certificateMessage()
		s.ks.addMessage(certMsg)
		certRecs, err := s.sealHandshake(certMsg)
		if err != nil {
			endPhase()
			return nil, err
		}
		for _, rec := range certRecs {
			emit(rec)
		}
		endPhase()

		// CertificateVerify: the handshake signature (the expensive step).
		endPhase = s.cfg.phase(PhaseCVSign)
		content := certVerifyContent(s.ks.transcriptHash())
		var signature []byte
		if s.cfg.Signer != nil {
			signature, err = s.cfg.Signer.Sign(content)
		} else {
			signature, err = s.scheme.Sign(s.cfg.PrivateKey, content)
		}
		if err != nil {
			return nil, fmt.Errorf("tls13: handshake signature: %w", err)
		}
		s.cfg.charge(OpSigSign, s.cfg.SigName)
		cvMsg := marshalCertVerify(wantSig, signature)
		s.ks.addMessage(cvMsg)
		cvRecs, err := s.sealHandshake(cvMsg)
		if err != nil {
			endPhase()
			return nil, err
		}
		for _, rec := range cvRecs {
			emit(rec)
		}
		endPhase()
	}

	// Server Finished.
	endPhase = s.cfg.phase(PhaseFinSend)
	mac := s.ks.finishedMsg(s.ks.serverHSTraffic[:], s.ks.transcriptHash())
	finMsg := handshakeMsg(typeFinished, len(mac), func(b *wire.Builder) { b.AddBytes(mac) })
	s.ks.addMessage(finMsg)
	// The client's Finished covers the transcript through server Finished.
	s.ks.finishedMACInto(&s.expectedClientFin, s.ks.clientHSTraffic[:], s.ks.transcriptHash())
	s.ks.deriveMaster()
	finRecs, err := s.sealHandshake(finMsg)
	if err != nil {
		endPhase()
		return nil, err
	}
	for _, rec := range finRecs {
		emit(rec)
	}
	endPhase()

	return s.groupFlushes(timed), nil
}

// sealHandshake encrypts a handshake message, fragmenting it across records
// when it exceeds the record-layer plaintext limit (SPHINCS+ certificates
// are several records long).
func (s *Server) sealHandshake(msg []byte) ([]Record, error) {
	defer s.cfg.phase(PhaseRecordWrite)()
	var out []Record
	for len(msg) > 0 {
		n := min(len(msg), maxRecordPayload)
		rec, err := s.sendHC.seal(RecordHandshake, msg[:n])
		if err != nil {
			return nil, err
		}
		// seal's payload aliases the halfConn scratch buffer and this
		// flight accumulates records across seals, so take a stable copy.
		rec.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, rec)
		msg = msg[n:]
	}
	return out, nil
}

// groupFlushes applies the buffering policy to the timed record sequence.
func (s *Server) groupFlushes(timed []timedRecord) []Flush {
	switch s.cfg.Buffer {
	case BufferImmediate:
		return groupImmediate(timed)
	default:
		return groupDefault(timed)
	}
}

// groupImmediate flushes after the ServerHello(+CCS) and after the
// Certificate, then sends the rest when complete. Boundaries are detected
// structurally: flush 1 is the plaintext prefix (SH, CCS), flush 2 ends
// after the records carrying the Certificate message.
func groupImmediate(timed []timedRecord) []Flush {
	var flushes []Flush
	var cur []Record
	flushAt := func(off time.Duration) {
		if len(cur) > 0 {
			flushes = append(flushes, Flush{Records: cur, Offset: off})
			cur = nil
		}
	}
	plaintextDone := false
	encCount := 0
	// Count how many encrypted records belong to EE+Certificate: everything
	// up to (records - 2) since CV and Finished each occupy the tail. We
	// conservatively split before the CV record group by scanning offsets:
	// the CV record is the first encrypted record whose offset jumps after
	// the signing span. Structure is fixed (EE, Cert..., CV, Fin), so we
	// can count from the end: the last 2+ records are CV and Fin.
	totalEnc := 0
	for _, tr := range timed {
		if tr.rec.Type == RecordApplicationData {
			totalEnc++
		}
	}
	for _, tr := range timed {
		cur = append(cur, tr.rec)
		if tr.rec.Type == RecordChangeCipherSpec && !plaintextDone {
			plaintextDone = true
			flushAt(tr.offset) // SH + CCS pushed immediately
			continue
		}
		if tr.rec.Type == RecordApplicationData {
			encCount++
			if encCount == totalEnc-2 { // EE + Certificate complete
				flushAt(tr.offset)
			}
		}
	}
	if len(timed) > 0 {
		flushAt(timed[len(timed)-1].offset)
	}
	return flushes
}

// groupDefault models the 4096-byte OpenSSL accumulation buffer: records
// accumulate and are flushed when the next record would overflow the
// buffer; the final flush happens only when the whole flight is computed.
func groupDefault(timed []timedRecord) []Flush {
	var flushes []Flush
	var cur []Record
	size := 0
	for _, tr := range timed {
		w := tr.rec.WireSize()
		if size > 0 && size+w > serverBufferSize {
			flushes = append(flushes, Flush{Records: cur, Offset: tr.offset})
			cur = nil
			size = 0
		}
		cur = append(cur, tr.rec)
		size += w
	}
	if len(cur) > 0 {
		flushes = append(flushes, Flush{Records: cur, Offset: timed[len(timed)-1].offset})
	}
	return flushes
}

// Finish consumes the client's ChangeCipherSpec + Finished flight. The
// Finished must end its record and the flight (RFC 8446 §5.1), and the
// handshake is done only once the whole flight has been checked.
func (s *Server) Finish(records []Record) error {
	if s.done {
		return errors.New("tls13: handshake already complete")
	}
	if s.recvHC == nil {
		return errors.New("tls13: Finish called before Respond sent the server flight")
	}
	defer s.cfg.phase(PhaseFinVerify)()
	finished := false
	for _, rec := range records {
		if finished {
			return errNotOnRecordBoundary
		}
		switch rec.Type {
		case RecordChangeCipherSpec:
			continue
		case RecordAlert:
			return parseAlert(rec)
		case RecordApplicationData:
			endRead := s.cfg.phase(PhaseRecordRead)
			innerType, plaintext, err := s.recvHC.open(rec)
			endRead()
			if err != nil {
				return err
			}
			if innerType != RecordHandshake {
				return alertf(AlertUnexpectedMessage, "tls13: inner type %d in client flight", innerType)
			}
			typ, body, rest, ok := parseHandshakeMsg(plaintext)
			if !ok {
				return alertf(AlertDecodeError, "tls13: truncated client Finished")
			}
			if typ != typeFinished {
				return alertf(AlertUnexpectedMessage, "tls13: expected client Finished, got type %d", typ)
			}
			if len(rest) != 0 {
				return errNotOnRecordBoundary
			}
			if !hmac.Equal(body, s.expectedClientFin[:]) {
				return alertf(AlertDecryptError, "tls13: client Finished verification failed")
			}
			finished = true
		default:
			return alertf(AlertUnexpectedMessage, "tls13: record type %d in client flight", rec.Type)
		}
	}
	if !finished {
		return alertf(AlertUnexpectedMessage, "tls13: client flight missing Finished")
	}
	s.done = true
	return nil
}

// Done reports whether the handshake completed.
func (s *Server) Done() bool { return s.done }

// ResumedSession reports whether the handshake was PSK-resumed (the client
// presented a valid ticket and the certificate flights were skipped).
func (s *Server) ResumedSession() bool { return s.resumptionPSK != nil }

// AppTrafficSecrets returns the application traffic secrets (client, server)
// once the handshake is complete.
func (s *Server) AppTrafficSecrets() (client, server []byte) {
	return s.ks.clientAppTraffic[:], s.ks.serverAppTraffic[:]
}
