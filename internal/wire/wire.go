// Package wire reads and writes the length-prefixed big-endian structures
// of TLS (RFC 8446 §3) and of the in-tree certificate and ticket formats.
// It is modelled on golang.org/x/crypto/cryptobyte, trimmed to what this
// module encodes.
//
// A String is a read cursor over a byte slice. Every Read method reports
// success as a bool, never panics, and leaves the String unchanged when it
// fails, so a decoder chains reads with && and returns one error at the end.
// Reads return sub-slices of the input and copy nothing: a decoded value
// aliases the caller's buffer and is only valid while that buffer is. A
// caller whose result outlives its input (a session ticket decrypted into a
// reused record buffer, a certificate handed to user code) copies it.
//
// A Builder appends to a byte slice. A length-prefixed field is written by a
// continuation on the same Builder: the prefix is reserved, the continuation
// runs, and the length is patched in afterwards. A length that does not fit
// its prefix is a programming error and panics rather than truncating the
// prefix into a malformed message.
package wire

// String is a read cursor over encoded bytes.
type String []byte

// read advances s by n bytes and returns them; ok is false, and s
// unchanged, when fewer remain.
func (s *String) read(n int) (v []byte, ok bool) {
	if n < 0 || len(*s) < n {
		return nil, false
	}
	v = (*s)[:n:n]
	*s = (*s)[n:]
	return v, true
}

// Skip advances s by n bytes.
func (s *String) Skip(n int) bool {
	_, ok := s.read(n)
	return ok
}

// Empty reports whether s has been read to its end.
func (s String) Empty() bool { return len(s) == 0 }

// ReadUint8 decodes one byte into out.
func (s *String) ReadUint8(out *uint8) bool {
	v, ok := s.read(1)
	if !ok {
		return false
	}
	*out = v[0]
	return true
}

// ReadUint16 decodes a big-endian uint16 into out.
func (s *String) ReadUint16(out *uint16) bool {
	v, ok := s.read(2)
	if !ok {
		return false
	}
	*out = uint16(v[0])<<8 | uint16(v[1])
	return true
}

// ReadUint24 decodes a big-endian 24-bit value into out.
func (s *String) ReadUint24(out *uint32) bool {
	v, ok := s.read(3)
	if !ok {
		return false
	}
	*out = uint32(v[0])<<16 | uint32(v[1])<<8 | uint32(v[2])
	return true
}

// ReadUint32 decodes a big-endian uint32 into out.
func (s *String) ReadUint32(out *uint32) bool {
	v, ok := s.read(4)
	if !ok {
		return false
	}
	*out = uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
	return true
}

// ReadBytes sets out to the next n bytes of s, without copying.
func (s *String) ReadBytes(out *[]byte, n int) bool {
	v, ok := s.read(n)
	if !ok {
		return false
	}
	*out = v
	return true
}

// CopyBytes fills out with the next len(out) bytes of s.
func (s *String) CopyBytes(out []byte) bool {
	v, ok := s.read(len(out))
	if !ok {
		return false
	}
	copy(out, v)
	return true
}

// readLengthPrefixed reads an n-byte big-endian length, then that many
// bytes into out. On failure s is left where it was.
func (s *String) readLengthPrefixed(n int, out *String) bool {
	orig := *s
	prefix, ok := s.read(n)
	if !ok {
		return false
	}
	length := 0
	for _, b := range prefix {
		length = length<<8 | int(b)
	}
	v, ok := s.read(length)
	if !ok {
		*s = orig
		return false
	}
	*out = v
	return true
}

// ReadUint8LengthPrefixed reads a one-byte length and that many bytes.
func (s *String) ReadUint8LengthPrefixed(out *String) bool { return s.readLengthPrefixed(1, out) }

// ReadUint16LengthPrefixed reads a two-byte length and that many bytes.
func (s *String) ReadUint16LengthPrefixed(out *String) bool { return s.readLengthPrefixed(2, out) }

// ReadUint24LengthPrefixed reads a three-byte length and that many bytes.
func (s *String) ReadUint24LengthPrefixed(out *String) bool { return s.readLengthPrefixed(3, out) }

// ReadUint32LengthPrefixed reads a four-byte length and that many bytes.
func (s *String) ReadUint32LengthPrefixed(out *String) bool { return s.readLengthPrefixed(4, out) }

// Builder appends encoded values to a byte slice. The zero value is ready
// to use.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder that appends to buf; passing a buffer with
// spare capacity sizes the output up front.
func NewBuilder(buf []byte) *Builder { return &Builder{buf: buf} }

// Bytes returns the encoded bytes.
func (b *Builder) Bytes() []byte { return b.buf }

// AddUint8 appends one byte.
func (b *Builder) AddUint8(v uint8) { b.buf = append(b.buf, v) }

// AddUint16 appends a big-endian uint16.
func (b *Builder) AddUint16(v uint16) { b.buf = append(b.buf, byte(v>>8), byte(v)) }

// AddUint24 appends the low 24 bits of v, big-endian.
func (b *Builder) AddUint24(v uint32) { b.buf = append(b.buf, byte(v>>16), byte(v>>8), byte(v)) }

// AddUint32 appends a big-endian uint32.
func (b *Builder) AddUint32(v uint32) {
	b.buf = append(b.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AddBytes appends v verbatim.
func (b *Builder) AddBytes(v []byte) { b.buf = append(b.buf, v...) }

// addLengthPrefixed reserves an n-byte length, lets f write the body on the
// same Builder, then back-patches the body's length.
func (b *Builder) addLengthPrefixed(n int, f func(*Builder)) {
	off := len(b.buf)
	for i := 0; i < n; i++ {
		b.buf = append(b.buf, 0)
	}
	f(b)
	length := uint64(len(b.buf) - off - n)
	if length >= 1<<(8*n) {
		panic("wire: length-prefixed value overflows its prefix")
	}
	for i := n - 1; i >= 0; i-- {
		b.buf[off+i] = byte(length)
		length >>= 8
	}
}

// AddUint8LengthPrefixed writes f's output behind a one-byte length.
func (b *Builder) AddUint8LengthPrefixed(f func(*Builder)) { b.addLengthPrefixed(1, f) }

// AddUint16LengthPrefixed writes f's output behind a two-byte length.
func (b *Builder) AddUint16LengthPrefixed(f func(*Builder)) { b.addLengthPrefixed(2, f) }

// AddUint24LengthPrefixed writes f's output behind a three-byte length.
func (b *Builder) AddUint24LengthPrefixed(f func(*Builder)) { b.addLengthPrefixed(3, f) }

// AddUint32LengthPrefixed writes f's output behind a four-byte length.
func (b *Builder) AddUint32LengthPrefixed(f func(*Builder)) { b.addLengthPrefixed(4, f) }
