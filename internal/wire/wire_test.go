package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1<<14 - 1, 1 << 14, 1<<21 - 1,
		1 << 32, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		got, n, err := ConsumeVarint(b)
		if err != nil {
			t.Fatalf("ConsumeVarint(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d: got %d", v, got)
		}
		if n != len(b) {
			t.Errorf("varint %d: consumed %d of %d bytes", v, n, len(b))
		}
		if n != SizeVarint(v) {
			t.Errorf("SizeVarint(%d) = %d, encoded %d", v, SizeVarint(v), n)
		}
	}
}

func TestVarintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendVarint(nil, v)
		got, n, err := ConsumeVarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConsumeVarintTruncated(t *testing.T) {
	if _, _, err := ConsumeVarint(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty input: err = %v, want ErrTruncated", err)
	}
	if _, _, err := ConsumeVarint([]byte{0x80}); !errors.Is(err, ErrTruncated) {
		t.Errorf("dangling continuation: err = %v, want ErrTruncated", err)
	}
}

func TestConsumeVarintOverflow(t *testing.T) {
	// 11 continuation bytes overflow 64 bits.
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := ConsumeVarint(b); !errors.Is(err, ErrOverflow) {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	// 10 bytes where the last carries more than 1 bit also overflows.
	b = append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	if _, _, err := ConsumeVarint(b); !errors.Is(err, ErrOverflow) {
		t.Errorf("10-byte err = %v, want ErrOverflow", err)
	}
}

func TestFieldEncodingRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint(b, 1, 42)
	b = AppendBool(b, 2, true)
	b = AppendBytes(b, 3, []byte("payload"))
	b = AppendString(b, 4, "hello")

	r := NewReader(b)
	num, wt, ok := r.Next()
	if !ok || num != 1 || wt != TypeVarint {
		t.Fatalf("field 1: num=%d wt=%d ok=%v", num, wt, ok)
	}
	if v := r.Uint(); v != 42 {
		t.Errorf("field 1 = %d, want 42", v)
	}
	num, _, _ = r.Next()
	if num != 2 || !r.Bool() {
		t.Errorf("field 2 bool wrong")
	}
	num, _, _ = r.Next()
	if num != 3 || string(r.Bytes()) != "payload" {
		t.Errorf("field 3 bytes wrong")
	}
	num, _, _ = r.Next()
	if num != 4 || r.String() != "hello" {
		t.Errorf("field 4 string wrong")
	}
	if _, _, ok := r.Next(); ok {
		t.Error("expected end of message")
	}
	if r.Err() != nil {
		t.Errorf("reader error: %v", r.Err())
	}
}

func TestZeroElision(t *testing.T) {
	var b []byte
	b = AppendUint(b, 1, 0)
	b = AppendBool(b, 2, false)
	b = AppendBytes(b, 3, nil)
	b = AppendString(b, 4, "")
	if len(b) != 0 {
		t.Errorf("zero values should be elided, got %d bytes", len(b))
	}
	b = AppendBytesAlways(b, 5, nil)
	if len(b) == 0 {
		t.Error("AppendBytesAlways must emit empty fields")
	}
}

func TestReaderSkip(t *testing.T) {
	var b []byte
	b = AppendUint(b, 1, 300)
	b = AppendBytes(b, 2, []byte{1, 2, 3})
	b = AppendTag(b, 3, TypeFixed64)
	b = append(b, make([]byte, 8)...)
	b = AppendTag(b, 4, TypeFixed32)
	b = append(b, make([]byte, 4)...)
	b = AppendUint(b, 5, 7)

	r := NewReader(b)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		if num == 5 {
			if v := r.Uint(); v != 7 {
				t.Errorf("field 5 = %d, want 7", v)
			}
			continue
		}
		r.Skip(wt)
	}
	if r.Err() != nil {
		t.Fatalf("skip chain: %v", r.Err())
	}
}

func TestReaderTruncatedBytes(t *testing.T) {
	b := AppendTag(nil, 1, TypeBytes)
	b = AppendVarint(b, 100) // claims 100 bytes, provides none
	r := NewReader(b)
	if _, _, ok := r.Next(); !ok {
		t.Fatal("expected a field")
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("expected nil bytes, got %v", v)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", r.Err())
	}
}

// TestReaderRejectsWireTypeMismatch: a value accessor reads only the wire
// type Next reported — Bytes and String a length-delimited field, Uint a
// varint — and anything else is ErrWireType, not a reinterpretation.
func TestReaderRejectsWireTypeMismatch(t *testing.T) {
	varint := append(AppendTag(nil, 1, TypeVarint), 3, 'a', 'b', 'c')
	fixed := append(AppendTag(nil, 1, TypeFixed32), 0, 0, 0, 0)
	for _, c := range []struct {
		name string
		msg  []byte
		read func(*Reader)
	}{
		{"Bytes of a varint", varint, func(r *Reader) { r.Bytes() }},
		{"String of a varint", varint, func(r *Reader) { _ = r.String() }},
		{"Uint of a length-delimited field", AppendBytes(nil, 1, []byte("abc")), func(r *Reader) { r.Uint() }},
		{"Bytes of a fixed32", fixed, func(r *Reader) { r.Bytes() }},
		{"Uint of a fixed32", fixed, func(r *Reader) { r.Uint() }},
	} {
		r := NewReader(c.msg)
		if _, _, ok := r.Next(); !ok {
			t.Fatalf("%s: no field", c.name)
		}
		c.read(r)
		if !errors.Is(r.Err(), ErrWireType) {
			t.Errorf("%s: err = %v, want ErrWireType", c.name, r.Err())
		}
	}
}

func TestFieldOffset(t *testing.T) {
	var b []byte
	b = AppendUint(b, 1, 9)
	b = AppendBytes(b, 2, []byte("abcdef"))
	off, l, ok := FieldOffset(b, 2)
	if !ok {
		t.Fatal("field 2 not found")
	}
	if string(b[off:off+l]) != "abcdef" {
		t.Errorf("offset points at %q", b[off:off+l])
	}
	if _, _, ok := FieldOffset(b, 3); ok {
		t.Error("field 3 should be absent")
	}
}

func TestNestedDepth(t *testing.T) {
	// Build a 5-layer nesting: each layer is field 1 wrapping the previous.
	inner := AppendUint(nil, 1, 5)
	msg := inner
	for i := 0; i < 4; i++ {
		msg = AppendBytes(nil, 1, msg)
	}
	if d := NestedDepth(msg); d < 4 {
		t.Errorf("NestedDepth = %d, want >= 4", d)
	}
	if d := NestedDepth(AppendUint(nil, 1, 1)); d > 1 {
		t.Errorf("flat message depth = %d", d)
	}
}

func TestNestedDepthBounded(t *testing.T) {
	msg := AppendUint(nil, 1, 1)
	for i := 0; i < MaxNesting+10; i++ {
		msg = AppendBytes(nil, 1, msg)
	}
	if d := NestedDepth(msg); d > MaxNesting {
		t.Errorf("depth %d exceeds MaxNesting", d)
	}
}

func TestSizeBytesField(t *testing.T) {
	payload := bytes.Repeat([]byte{0xaa}, 200)
	b := AppendBytes(nil, 7, payload)
	if got := SizeBytesField(7, len(payload)); got != len(b) {
		t.Errorf("SizeBytesField = %d, encoded %d", got, len(b))
	}
}

func FuzzReaderNoPanic(f *testing.F) {
	f.Add([]byte{0x0a, 0x02, 0x01, 0x02})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for {
			_, wt, ok := r.Next()
			if !ok {
				break
			}
			r.Skip(wt)
			if r.Err() != nil {
				break
			}
		}
		NestedDepth(data)
	})
}

func BenchmarkVarintEncode(b *testing.B) {
	buf := make([]byte, 0, 16)
	for i := 0; i < b.N; i++ {
		buf = AppendVarint(buf[:0], uint64(i)*2654435761)
	}
}

func BenchmarkReaderScan(b *testing.B) {
	var msg []byte
	for i := 1; i <= 20; i++ {
		msg = AppendBytes(msg, i, bytes.Repeat([]byte{byte(i)}, 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(msg)
		for {
			_, wt, ok := r.Next()
			if !ok {
				break
			}
			r.Skip(wt)
		}
	}
}
