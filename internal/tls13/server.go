package tls13

import (
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"

	"pqtls/internal/kem"
	"pqtls/internal/sig"
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

	sendHC *halfConn // server handshake traffic (server -> client)
	recvHC *halfConn // client handshake traffic (client -> server)

	expectedClientFin [32]byte
	resumptionPSK     []byte
	hrrSent           bool
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
	if s.ks == nil {
		return nil, errors.New("tls13: Respond called twice")
	}
	start := s.cfg.now()
	rng := s.cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}

	// Error paths abandon the open phase: the handshake (and its trace) is
	// discarded on error, and Hooks implementations tolerate unclosed spans.
	endPhase := s.cfg.phase(PhaseCHParse)
	endSSL := s.cfg.span(LibSSL)
	var chMsg []byte
	for _, rec := range records {
		if rec.Type != RecordHandshake {
			continue
		}
		chMsg = append(chMsg, rec.Payload...)
	}
	typ, body, _, err := parseHandshakeMsg(chMsg)
	if err != nil {
		endSSL()
		return nil, err
	}
	if typ != typeClientHello {
		endSSL()
		return nil, fmt.Errorf("tls13: expected ClientHello, got message type %d", typ)
	}
	ch, err := parseClientHello(body)
	if err != nil {
		endSSL()
		return nil, err
	}
	wantGroup, err := GroupID(s.cfg.KEMName)
	if err != nil {
		endSSL()
		return nil, err
	}
	if ch.group != wantGroup {
		// If the client supports our group but guessed another for its key
		// share, fall back to the 2-RTT HelloRetryRequest flow.
		supported := false
		for _, g := range ch.groups {
			if g == wantGroup {
				supported = true
			}
		}
		if supported && !s.hrrSent {
			s.hrrSent = true
			// RFC 8446 §4.4.1: the transcript restarts with a synthetic
			// message_hash of CH1 followed by the HRR.
			s.ks = newKeySchedule()
			s.ks.addMessage(messageHash(chMsg))
			hrr := marshalHRR(ch.sessionID, wantGroup)
			s.ks.addMessage(hrr)
			endSSL()
			endPhase()
			return []Flush{{
				Records: []Record{{Type: RecordHandshake, Payload: hrr}},
				Offset:  s.cfg.now().Sub(start),
			}}, nil
		}
		endSSL()
		return nil, fmt.Errorf("tls13: client offered group %#04x, server requires %#04x (%s)",
			ch.group, wantGroup, s.cfg.KEMName)
	}
	wantSig, err := SigID(s.cfg.SigName)
	if err != nil {
		endSSL()
		return nil, err
	}
	if ch.sigAlg != wantSig {
		endSSL()
		return nil, fmt.Errorf("tls13: client offered sigalg %#04x, server requires %#04x (%s)",
			ch.sigAlg, wantSig, s.cfg.SigName)
	}
	endPhase()
	// PSK resumption: a valid ticket + binder switches to the
	// certificate-free flow.
	if ticket, binder, partial, hasPSK := parsePSKExtension(chMsg); hasPSK {
		endRedeem := s.cfg.phase(PhaseTicketRedeem)
		store := s.cfg.sessionTickets()
		if store == nil {
			endSSL()
			return nil, errNoTicketStore
		}
		psk, kemName, err := store.Open(ticket)
		if err != nil {
			endSSL()
			return nil, err
		}
		if kemName != s.cfg.KEMName {
			endSSL()
			return nil, fmt.Errorf("tls13: ticket bound to %s, server uses %s", kemName, s.cfg.KEMName)
		}
		if !hmac.Equal(computeBinder(psk, partial), binder) {
			endSSL()
			return nil, errors.New("tls13: PSK binder verification failed")
		}
		s.resumptionPSK = psk
		endRedeem()
	}
	s.ks.addMessage(chMsg)
	endSSL()

	// Key agreement: encapsulate against the client's share.
	endEncap := s.cfg.phase(PhaseKEMEncap)
	endCrypto := s.cfg.span(LibCrypto)
	ct, ss, err := s.kem.Encapsulate(rng, ch.keyShare)
	if err != nil {
		endCrypto()
		return nil, fmt.Errorf("tls13: encapsulation: %w", err)
	}
	s.cfg.charge(OpKEMEncaps, s.kem.Name())
	endCrypto()
	endEncap()

	endPhase = s.cfg.phase(PhaseServerHello)
	endSSL = s.cfg.span(LibSSL)
	sh := &serverHello{group: ch.group, keyShare: ct, sessionID: ch.sessionID}
	if _, err := io.ReadFull(rng, sh.random[:]); err != nil {
		endSSL()
		return nil, err
	}
	shMsg := sh.marshal()
	s.ks.addMessage(shMsg)
	endSSL()
	endPhase()

	endCrypto = s.cfg.span(LibCrypto)
	if s.resumptionPSK != nil {
		s.ks.setEarlySecret(s.resumptionPSK)
	}
	s.ks.setSharedSecret(ss)
	sendKey, sendIV := s.ks.trafficKeys(s.ks.serverHSTraffic[:])
	s.sendHC, err = newHalfConn(sendKey, sendIV)
	if err != nil {
		endCrypto()
		return nil, err
	}
	recvKey, recvIV := s.ks.trafficKeys(s.ks.clientHSTraffic[:])
	s.recvHC, err = newHalfConn(recvKey, recvIV)
	if err != nil {
		endCrypto()
		return nil, err
	}
	endCrypto()

	var timed []timedRecord
	emit := func(rec Record) {
		timed = append(timed, timedRecord{rec: rec, offset: s.cfg.now().Sub(start)})
	}
	emit(Record{Type: RecordHandshake, Payload: shMsg})
	// Middlebox-compatibility ChangeCipherSpec, as OpenSSL sends it.
	emit(Record{Type: RecordChangeCipherSpec, Payload: []byte{1}})

	// EncryptedExtensions (empty list).
	endSSL = s.cfg.span(LibSSL)
	eeMsg := handshakeMsg(typeEncryptedExts, []byte{0, 0})
	s.ks.addMessage(eeMsg)
	eeRecs, err := s.sealHandshake(eeMsg)
	if err != nil {
		endSSL()
		return nil, err
	}
	for _, rec := range eeRecs {
		emit(rec)
	}
	endSSL()

	// Certificate and CertificateVerify — skipped entirely on resumption,
	// which is what removes the PQ authentication cost from resumed
	// handshakes.
	if s.resumptionPSK == nil {
		endPhase = s.cfg.phase(PhaseCertWrite)
		endSSL = s.cfg.span(LibSSL)
		// Marshaled once per Config; identical for every handshake (shared
		// read-only bytes, sealHandshake clones record payloads).
		certMsg := s.cfg.certificateMessage()
		s.ks.addMessage(certMsg)
		certRecs, err := s.sealHandshake(certMsg)
		if err != nil {
			endSSL()
			endPhase()
			return nil, err
		}
		for _, rec := range certRecs {
			emit(rec)
		}
		endSSL()
		endPhase()

		// CertificateVerify: the handshake signature (the expensive step).
		endPhase = s.cfg.phase(PhaseCVSign)
		endCrypto = s.cfg.span(LibCrypto)
		content := certVerifyContent(s.ks.transcriptHash())
		var signature []byte
		if s.cfg.Signer != nil {
			signature, err = s.cfg.Signer.Sign(content)
		} else {
			signature, err = s.scheme.Sign(s.cfg.PrivateKey, content)
		}
		if err != nil {
			endCrypto()
			return nil, fmt.Errorf("tls13: handshake signature: %w", err)
		}
		s.cfg.charge(OpSigSign, s.cfg.SigName)
		endCrypto()
		endSSL = s.cfg.span(LibSSL)
		cvMsg := marshalCertVerify(wantSig, signature)
		s.ks.addMessage(cvMsg)
		cvRecs, err := s.sealHandshake(cvMsg)
		if err != nil {
			endSSL()
			endPhase()
			return nil, err
		}
		for _, rec := range cvRecs {
			emit(rec)
		}
		endSSL()
		endPhase()
	}

	// Server Finished.
	endPhase = s.cfg.phase(PhaseFinSend)
	endCrypto = s.cfg.span(LibCrypto)
	finMsg := handshakeMsg(typeFinished, s.ks.finishedMsg(s.ks.serverHSTraffic[:], s.ks.transcriptHash()))
	s.ks.addMessage(finMsg)
	// The client's Finished covers the transcript through server Finished.
	s.ks.finishedMACInto(&s.expectedClientFin, s.ks.clientHSTraffic[:], s.ks.transcriptHash())
	s.ks.deriveMaster()
	endCrypto()
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

// Finish consumes the client's ChangeCipherSpec + Finished flight.
func (s *Server) Finish(records []Record) error {
	if s.done {
		return errors.New("tls13: handshake already complete")
	}
	defer s.cfg.phase(PhaseFinVerify)()
	for _, rec := range records {
		switch rec.Type {
		case RecordChangeCipherSpec:
			continue
		case RecordAlert:
			return parseAlert(rec)
		case RecordApplicationData:
			endRead := s.cfg.phase(PhaseRecordRead)
			endCrypto := s.cfg.span(LibCrypto)
			innerType, plaintext, err := s.recvHC.open(rec)
			endCrypto()
			endRead()
			if err != nil {
				return err
			}
			if innerType != RecordHandshake {
				return fmt.Errorf("tls13: unexpected inner type %d in client flight", innerType)
			}
			typ, body, _, err := parseHandshakeMsg(plaintext)
			if err != nil {
				return err
			}
			if typ != typeFinished {
				return fmt.Errorf("tls13: expected client Finished, got type %d", typ)
			}
			if !hmac.Equal(body, s.expectedClientFin[:]) {
				return errors.New("tls13: client Finished verification failed")
			}
			s.done = true
		default:
			return fmt.Errorf("tls13: unexpected record type %d in client flight", rec.Type)
		}
	}
	if !s.done {
		return errors.New("tls13: client flight missing Finished")
	}
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
