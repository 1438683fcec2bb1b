// Package wire implements the subset of the Protocol Buffers wire format
// that Hyperledger Fabric uses for its block and transaction structures:
// varint-encoded tags and integers, and length-delimited byte fields.
//
// Fabric stores a block as a deeply nested stack of marshaled protobufs
// (up to 23 layers); reproducing that encoding is what makes the software
// validator pay the unmarshaling cost the paper measures (~10% of total
// validation time, Figure 3a). The package is deliberately reflection-free:
// every message in internal/block hand-writes its Marshal/Unmarshal against
// this Builder/Reader pair, exactly like a generated protobuf runtime would
// behave on the wire.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
)

// Wire types from the protobuf encoding specification.
const (
	TypeVarint  = 0 // int32, int64, uint32, uint64, bool, enum
	TypeFixed64 = 1
	TypeBytes   = 2 // string, bytes, embedded messages
	TypeFixed32 = 5
)

// Encoding limits. MaxNesting bounds recursive message depth so a corrupt
// or hostile payload cannot exhaust the stack; Fabric blocks need 23 layers,
// we allow headroom.
const (
	MaxNesting   = 64
	maxVarintLen = 10
)

var (
	// ErrTruncated reports a field that extends past the end of the buffer.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrOverflow reports a varint longer than 64 bits.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrWireType reports an unknown or mismatched wire type for a field.
	ErrWireType = errors.New("wire: unexpected wire type")
)

// AppendVarint appends v in base-128 varint encoding.
func AppendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// ConsumeVarint parses a varint at the front of b, returning the value and
// the number of bytes consumed. n is 0 on error.
func ConsumeVarint(b []byte) (v uint64, n int, err error) {
	var shift uint
	for i := 0; i < len(b); i++ {
		if i == maxVarintLen {
			return 0, 0, ErrOverflow
		}
		c := b[i]
		if i == maxVarintLen-1 && c > 1 {
			return 0, 0, ErrOverflow
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// SizeVarint reports the encoded size of v in bytes.
func SizeVarint(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendTag appends the tag for field num with the given wire type.
func AppendTag(b []byte, num int, wtype int) []byte {
	return AppendVarint(b, uint64(num)<<3|uint64(wtype))
}

// AppendUint appends a varint field (tag + value). Zero values are skipped,
// matching proto3 default-elision semantics.
func AppendUint(b []byte, num int, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = AppendTag(b, num, TypeVarint)
	return AppendVarint(b, v)
}

// AppendBool appends a bool field, eliding false.
func AppendBool(b []byte, num int, v bool) []byte {
	if !v {
		return b
	}
	b = AppendTag(b, num, TypeVarint)
	return append(b, 1)
}

// AppendBytes appends a length-delimited field. Empty values are skipped.
func AppendBytes(b []byte, num int, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = AppendTag(b, num, TypeBytes)
	b = AppendVarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendBytesAlways appends a length-delimited field even when empty. Used
// where presence matters (e.g. repeated message elements).
func AppendBytesAlways(b []byte, num int, v []byte) []byte {
	b = AppendTag(b, num, TypeBytes)
	b = AppendVarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendString appends a string field, eliding the empty string.
func AppendString(b []byte, num int, s string) []byte {
	if s == "" {
		return b
	}
	b = AppendTag(b, num, TypeBytes)
	b = AppendVarint(b, uint64(len(s)))
	return append(b, s...)
}

// SizeBytesField reports the full encoded size of a length-delimited field.
func SizeBytesField(num, payloadLen int) int {
	return SizeVarint(uint64(num)<<3) + SizeVarint(uint64(payloadLen)) + payloadLen
}

// SizeUintField reports the full encoded size of a varint field, honoring
// AppendUint's zero-elision (0 bytes for v == 0). Together with
// SizeBytesField it lets marshalers precompute an exact message size and
// allocate once instead of append-growing.
func SizeUintField(num int, v uint64) int {
	if v == 0 {
		return 0
	}
	return SizeVarint(uint64(num)<<3) + SizeVarint(v)
}

// Reader iterates over the fields of a single marshaled message. The zero
// value is an exhausted reader; construct with NewReader.
//
// The value accessors check the wire type Next reported: Bytes and String
// read only a length-delimited field and Uint (Bool) only a varint one; any
// other pairing sets ErrWireType rather than reinterpreting the bytes, so a
// decoded message always re-encodes to the bytes it came from.
type Reader struct {
	buf   []byte
	pos   int
	err   error
	wtype int // of the field Next returned last
}

// NewReader returns a Reader over buf. The Reader does not copy buf; callers
// must not mutate it while reading.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first error encountered while reading.
func (r *Reader) Err() error { return r.err }

// Pos returns the current byte offset into the message.
func (r *Reader) Pos() int { return r.pos }

// Next advances to the next field, reporting its number and wire type.
// It returns false at end of message or on malformed input (check Err).
func (r *Reader) Next() (num int, wtype int, ok bool) {
	if r.err != nil || r.pos >= len(r.buf) {
		return 0, 0, false
	}
	tag, n, err := ConsumeVarint(r.buf[r.pos:])
	if err != nil {
		r.err = fmt.Errorf("field tag at offset %d: %w", r.pos, err)
		return 0, 0, false
	}
	r.pos += n
	num = int(tag >> 3)
	wtype = int(tag & 7)
	if num == 0 {
		r.err = fmt.Errorf("wire: field number 0 at offset %d", r.pos)
		return 0, 0, false
	}
	r.wtype = wtype
	return num, wtype, true
}

// expect reports whether the current field has wire type want, setting
// ErrWireType when it does not.
func (r *Reader) expect(want int) bool {
	if r.err == nil && r.wtype != want {
		r.err = fmt.Errorf("field at offset %d: %w (type %d, want %d)", r.pos, ErrWireType, r.wtype, want)
	}
	return r.err == nil
}

// Uint reads the current varint field value.
func (r *Reader) Uint() uint64 {
	if !r.expect(TypeVarint) {
		return 0
	}
	return r.varint()
}

func (r *Reader) varint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := ConsumeVarint(r.buf[r.pos:])
	if err != nil {
		r.err = fmt.Errorf("varint value at offset %d: %w", r.pos, err)
		return 0
	}
	r.pos += n
	return v
}

// Bool reads the current varint field as a bool.
func (r *Reader) Bool() bool { return r.Uint() != 0 }

// Bytes reads the current length-delimited field. The returned slice aliases
// the underlying buffer.
func (r *Reader) Bytes() []byte {
	if !r.expect(TypeBytes) {
		return nil
	}
	return r.bytes()
}

func (r *Reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	l, n, err := ConsumeVarint(r.buf[r.pos:])
	if err != nil {
		r.err = fmt.Errorf("bytes length at offset %d: %w", r.pos, err)
		return nil
	}
	r.pos += n
	if uint64(len(r.buf)-r.pos) < l {
		r.err = fmt.Errorf("bytes field at offset %d: %w", r.pos, ErrTruncated)
		return nil
	}
	v := r.buf[r.pos : r.pos+int(l)]
	r.pos += int(l)
	return v
}

// String reads the current length-delimited field as a string (copies).
func (r *Reader) String() string { return string(r.Bytes()) }

// Skip discards the current field value of the given wire type.
func (r *Reader) Skip(wtype int) {
	if r.err != nil {
		return
	}
	switch wtype {
	case TypeVarint:
		r.varint()
	case TypeBytes:
		r.bytes()
	case TypeFixed64:
		if len(r.buf)-r.pos < 8 {
			r.err = ErrTruncated
			return
		}
		r.pos += 8
	case TypeFixed32:
		if len(r.buf)-r.pos < 4 {
			r.err = ErrTruncated
			return
		}
		r.pos += 4
	default:
		r.err = fmt.Errorf("skip field: %w (type %d)", ErrWireType, wtype)
	}
}

// FieldOffset scans the message for the first occurrence of field num with
// a length-delimited payload and returns the byte offset and length of the
// payload within buf. This is what the BMac protocol's AnnotationGenerator
// uses to compute pointer annotations. Returns ok=false if absent.
func FieldOffset(buf []byte, num int) (off, length int, ok bool) {
	r := NewReader(buf)
	for {
		n, wt, more := r.Next()
		if !more {
			return 0, 0, false
		}
		if n == num && wt == TypeBytes {
			l, vn, err := ConsumeVarint(buf[r.pos:])
			if err != nil {
				return 0, 0, false
			}
			start := r.pos + vn
			if uint64(len(buf)-start) < l {
				return 0, 0, false
			}
			return start, int(l), true
		}
		r.Skip(wt)
		if r.Err() != nil {
			return 0, 0, false
		}
	}
}

// NestedDepth reports the maximum protobuf nesting depth reachable by
// treating every length-delimited field as a candidate embedded message.
// It is used by tests and by the protocol analyzer to demonstrate the
// "up to 23 layers" structure of a marshaled Fabric block.
func NestedDepth(buf []byte) int {
	return nestedDepth(buf, 0)
}

func nestedDepth(buf []byte, depth int) int {
	if depth >= MaxNesting {
		return depth
	}
	maxDepth := depth
	r := NewReader(buf)
	for {
		_, wt, ok := r.Next()
		if !ok {
			break
		}
		if wt != TypeBytes {
			r.Skip(wt)
			if r.Err() != nil {
				return depth
			}
			continue
		}
		v := r.Bytes()
		if r.Err() != nil {
			return depth
		}
		if looksLikeMessage(v) {
			if d := nestedDepth(v, depth+1); d > maxDepth {
				maxDepth = d
			}
		}
	}
	if r.Err() != nil {
		return depth
	}
	return maxDepth + boolToInt(maxDepth == depth)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// looksLikeMessage applies a conservative structural check: every field must
// parse and field numbers must be small. It is a heuristic for NestedDepth
// only; real decoding always uses the typed Unmarshal methods.
func looksLikeMessage(buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	r := NewReader(buf)
	fields := 0
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		if num > 1024 {
			return false
		}
		r.Skip(wt)
		if r.Err() != nil {
			return false
		}
		fields++
	}
	return r.Err() == nil && fields > 0
}
