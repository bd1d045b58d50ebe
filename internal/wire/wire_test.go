package wire

import (
	"bytes"
	"testing"
)

// fields is one value of every kind the package encodes.
type fields struct {
	u8       uint8
	u16      uint16
	u24, u32 uint32
	payload  []byte
}

// build encodes f: the four integers, then payload behind each prefix width
// (cut to 255 bytes for the one-byte prefix), nested once.
func (f fields) build() []byte {
	short := f.payload[:min(len(f.payload), 255)]
	b := NewBuilder(nil)
	b.AddUint8(f.u8)
	b.AddUint16(f.u16)
	b.AddUint24(f.u24)
	b.AddUint32(f.u32)
	b.AddUint8LengthPrefixed(func(b *Builder) { b.AddBytes(short) })
	b.AddUint16LengthPrefixed(func(b *Builder) {
		b.AddUint24LengthPrefixed(func(b *Builder) { b.AddBytes(f.payload) })
	})
	b.AddUint32LengthPrefixed(func(b *Builder) { b.AddBytes(f.payload) })
	return b.Bytes()
}

// parse decodes what build wrote, checking that a failed read leaves the
// String where it was.
func parse(t *testing.T, in []byte) (fields, bool) {
	t.Helper()
	s := String(in)
	var f fields
	var short, outer, inner, long String
	steps := []func() bool{
		func() bool { return s.ReadUint8(&f.u8) },
		func() bool { return s.ReadUint16(&f.u16) },
		func() bool { return s.ReadUint24(&f.u24) },
		func() bool { return s.ReadUint32(&f.u32) },
		func() bool { return s.ReadUint8LengthPrefixed(&short) },
		func() bool { return s.ReadUint16LengthPrefixed(&outer) },
		func() bool { return outer.ReadUint24LengthPrefixed(&inner) && outer.Empty() },
		func() bool { return s.ReadUint32LengthPrefixed(&long) },
	}
	for _, step := range steps {
		before := len(s)
		if !step() {
			if len(s) != before {
				t.Fatalf("failed read advanced the string from %d to %d bytes", before, len(s))
			}
			return f, false
		}
	}
	if !s.Empty() || !bytes.Equal(inner, long) || !bytes.Equal(short, long[:len(short)]) {
		return f, false
	}
	f.payload = long
	return f, true
}

func checkRoundTrip(t *testing.T, f fields) {
	f.u24 &= 0xFFFFFF
	enc := f.build()
	got, ok := parse(t, enc)
	if !ok {
		t.Fatalf("built %x does not parse", enc)
	}
	if got.u8 != f.u8 || got.u16 != f.u16 || got.u24 != f.u24 || got.u32 != f.u32 || !bytes.Equal(got.payload, f.payload) {
		t.Fatalf("round trip: got %+v, want %+v", got, f)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, ok := parse(t, enc[:cut]); ok {
			t.Fatalf("truncation to %d of %d bytes parsed", cut, len(enc))
		}
	}
}

func TestRoundTrip(t *testing.T) {
	checkRoundTrip(t, fields{0xA1, 0xB2C3, 0xD4E5F6, 0x0718293A, []byte("payload")})
	checkRoundTrip(t, fields{payload: nil})
	checkRoundTrip(t, fields{0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF, bytes.Repeat([]byte{0xEE}, 300)})
}

func TestWireFormat(t *testing.T) {
	b := NewBuilder([]byte{0x99})
	b.AddUint24(0x010203)
	b.AddUint16LengthPrefixed(func(b *Builder) {
		b.AddUint8LengthPrefixed(func(b *Builder) { b.AddBytes([]byte{7, 8}) })
	})
	b.AddUint32LengthPrefixed(func(*Builder) {})
	want := []byte{0x99, 1, 2, 3, 0, 3, 2, 7, 8, 0, 0, 0, 0}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("got %x, want %x", b.Bytes(), want)
	}
}

// A read of zero bytes succeeds even on a nil String.
func TestZeroLengthReads(t *testing.T) {
	var s String
	var out []byte
	if !s.Skip(0) || !s.ReadBytes(&out, 0) || !s.CopyBytes(nil) || !s.Empty() {
		t.Error("zero-length read of an empty string failed")
	}
	if s.Skip(1) || s.Skip(-1) {
		t.Error("read past the end succeeded")
	}
}

// Reads alias the input and cannot be grown into the bytes after them.
func TestReadsAlias(t *testing.T) {
	in := []byte{2, 'a', 'b', 'c'}
	s := String(in)
	var v String
	if !s.ReadUint8LengthPrefixed(&v) {
		t.Fatal("read failed")
	}
	in[1] = 'z'
	if string(v) != "zb" {
		t.Errorf("read %q does not alias its input", v)
	}
	_ = append(v, 'x')
	if in[3] != 'c' {
		t.Error("appending to a read overwrote the input after it")
	}
}

func TestBuilderOverflowPanics(t *testing.T) {
	for _, tc := range []struct {
		add    func(*Builder, func(*Builder))
		prefix int
	}{
		{(*Builder).AddUint8LengthPrefixed, 1},
		{(*Builder).AddUint16LengthPrefixed, 2},
	} {
		limit := 1 << (8 * tc.prefix)
		b := NewBuilder(nil)
		tc.add(b, func(b *Builder) { b.AddBytes(make([]byte, limit-1)) })
		if len(b.Bytes()) != tc.prefix+limit-1 {
			t.Errorf("u%d prefix: a %d-byte body wrote %d bytes", 8*tc.prefix, limit-1, len(b.Bytes()))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("u%d prefix: a %d-byte body did not panic", 8*tc.prefix, limit)
				}
			}()
			tc.add(NewBuilder(nil), func(b *Builder) { b.AddBytes(make([]byte, limit)) })
		}()
	}
}

// FuzzRoundTrip checks that everything the Builder writes parses back to
// the same values, and that every truncation fails cleanly without the
// failing read advancing.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint16(2), uint32(3), uint32(4), []byte("seed"))
	f.Add(uint8(0), uint16(0), uint32(0), uint32(0), []byte{})
	f.Add(uint8(0xFF), uint16(0xFFFF), uint32(0xFFFFFF), uint32(0xFFFFFFFF), bytes.Repeat([]byte{1}, 256))
	f.Fuzz(func(t *testing.T, u8 uint8, u16 uint16, u24, u32 uint32, payload []byte) {
		// The nested field sits inside a u16 prefix.
		payload = payload[:min(len(payload), 4096)]
		checkRoundTrip(t, fields{u8, u16, u24, u32, payload})
	})
}
