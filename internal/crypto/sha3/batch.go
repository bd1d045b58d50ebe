package sha3

import "sync"

// MultiXOF runs n independent Keccak sponges over n independent inputs as
// one batch. All inputs are absorbed and padded up front and the final
// permutations run in a single contiguous sweep over one flat lane array,
// so a batch of short messages (the matrix-expansion seeds of ML-KEM and
// Dilithium) pays one pooled allocation and one cache-resident pass instead
// of n pool round-trips through separate states. The per-message output is
// byte-identical to an individual SHAKE computation over the same input.
//
// A MultiXOF must not be used concurrently from multiple goroutines, but
// distinct streams may be squeezed in any order.
type MultiXOF struct {
	rate int
	ds   byte
	n    int
	a    []uint64 // 25 lanes per stream, states contiguous
	out  []byte   // rate bytes of squeeze staging per stream
	pos  []int    // consumed bytes of the current out block per stream
	// streams are preallocated io.Reader adapters so Stream(i) does not
	// allocate; they survive pool round-trips.
	streams []multiStream
}

// multiStream adapts one lane of a MultiXOF to io.Reader for the rejection
// samplers.
type multiStream struct {
	m *MultiXOF
	i int
}

func (s *multiStream) Read(p []byte) (int, error) {
	s.m.read(s.i, p)
	return len(p), nil
}

// multiPool recycles MultiXOF batches (lane array included) the way
// statePool recycles single sponges.
var multiPool = sync.Pool{New: func() any { return new(MultiXOF) }}

// NewMultiShake128 absorbs each input into its own SHAKE128 stream in one
// batched pass. Squeeze stream i with Stream(i); hand the batch back with
// PutMultiXOF to keep the next call allocation-free.
func NewMultiShake128(inputs [][]byte) *MultiXOF { return newMulti(168, 0x1F, inputs) }

// PutMultiXOF returns a batch obtained from NewMultiShake128 to the pool.
// The batch and any Stream readers obtained from it must not be used
// afterwards.
func PutMultiXOF(m *MultiXOF) { multiPool.Put(m) }

func newMulti(rate int, ds byte, inputs [][]byte) *MultiXOF {
	m := multiPool.Get().(*MultiXOF)
	n := len(inputs)
	m.rate, m.ds, m.n = rate, ds, n
	if cap(m.a) < 25*n {
		m.a = make([]uint64, 25*n)
		m.out = make([]byte, rate*n)
		m.pos = make([]int, n)
		m.streams = make([]multiStream, n)
	}
	m.a = m.a[:25*n]
	for i := range m.a {
		m.a[i] = 0
	}
	if cap(m.out) < rate*n {
		m.out = make([]byte, rate*n)
	}
	m.out = m.out[:rate*n]
	m.pos = m.pos[:n]
	m.streams = m.streams[:n]

	// Absorb every input and xor in its padding. Inputs longer than one
	// block permute as they go (a later block depends on the earlier one);
	// the common short-seed case leaves all n final permutations to the
	// contiguous sweep below.
	for i, in := range inputs {
		st := m.state(i)
		for len(in) >= rate {
			for k := 0; k < rate/8; k++ {
				st[k] ^= le64(in[8*k:])
			}
			keccakF1600Unrolled(st)
			in = in[rate:]
		}
		var blk [200]byte
		copy(blk[:], in)
		blk[len(in)] ^= ds
		blk[rate-1] ^= 0x80
		for k := 0; k < rate/8; k++ {
			st[k] ^= le64(blk[8*k:])
		}
	}
	// One sweep of final permutations over the contiguous states, then
	// serialize the first output block of every stream.
	for i := 0; i < n; i++ {
		keccakF1600Unrolled(m.state(i))
	}
	for i := 0; i < n; i++ {
		m.fill(i)
	}
	for i := range m.pos {
		m.pos[i] = 0
		m.streams[i] = multiStream{m: m, i: i}
	}
	return m
}

// state returns stream i's 25 lanes as an array pointer for the permutation.
func (m *MultiXOF) state(i int) *[25]uint64 {
	return (*[25]uint64)(m.a[25*i : 25*i+25])
}

// fill serializes stream i's current state into its staging block.
func (m *MultiXOF) fill(i int) {
	st, out := m.state(i), m.out[m.rate*i:m.rate*(i+1)]
	for k := 0; k < m.rate/8; k++ {
		putLE64(out[8*k:], st[k])
	}
}

// read squeezes len(p) bytes from stream i.
func (m *MultiXOF) read(i int, p []byte) {
	out := m.out[m.rate*i : m.rate*(i+1)]
	for len(p) > 0 {
		if m.pos[i] == m.rate {
			keccakF1600Unrolled(m.state(i))
			m.fill(i)
			m.pos[i] = 0
		}
		c := copy(p, out[m.pos[i]:])
		m.pos[i] += c
		p = p[c:]
	}
}

// Stream returns an io.Reader squeezing stream i. The reader is owned by
// the batch: it must not outlive PutMultiXOF and costs no allocation.
func (m *MultiXOF) Stream(i int) *multiStream { return &m.streams[i] }
