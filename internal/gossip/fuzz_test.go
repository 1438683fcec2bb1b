package gossip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bmac/internal/block"
)

// FuzzReadBlock holds the gossip frame reader to its contract on any stream:
// it never panics; a length over MaxBlockSize is rejected with ErrTooLarge
// having read the 4-byte prefix and nothing more, so before the body is
// allocated; an error comes with a nil block; and a frame that decodes
// round-trips through WriteBlock to the same bytes and the same frame size.
// The seeds are framed blocks, a frame with trailing bytes, and hostile
// prefixes (empty, torn, oversize, claiming more than is sent).
func FuzzReadBlock(f *testing.F) {
	frame := func(data []byte) []byte {
		return binary.BigEndian.AppendUint32(nil, uint32(len(data)))
	}
	for _, txs := range []int{0, 1, 3} {
		raw := block.Marshal(makeBlock(f, uint64(txs), txs))
		f.Add(append(frame(raw), raw...))
		f.Add(append(append(frame(raw), raw...), 0xde, 0xad))
		f.Add(append(frame(raw), raw[:len(raw)/2]...))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBlockSize+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, MaxBlockSize), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		b, n, err := ReadBlock(rd)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxBlockSize {
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("oversize length: err = %v, want ErrTooLarge", err)
			}
			if read := len(data) - rd.Len(); read != 4 {
				t.Fatalf("oversize length: read %d bytes, want only the 4-byte prefix", read)
			}
		}
		if err != nil {
			if b != nil || n != 0 {
				t.Fatalf("error %v came with block %v, %d bytes", err, b != nil, n)
			}
			return
		}
		if b == nil || n != len(data)-rd.Len() || n != 4+int(binary.BigEndian.Uint32(data)) {
			t.Fatalf("decoded frame: block %v, n = %d, consumed %d", b != nil, n, len(data)-rd.Len())
		}
		var buf bytes.Buffer
		wn, err := WriteBlock(&buf, b)
		if err != nil {
			t.Fatalf("WriteBlock of a decoded frame: %v", err)
		}
		enc := bytes.Clone(buf.Bytes())
		b2, rn, err := ReadBlock(&buf)
		if err != nil {
			t.Fatalf("re-read of %x: %v", enc, err)
		}
		if rn != wn || buf.Len() != 0 {
			t.Fatalf("wrote %d bytes, read %d, %d left over", wn, rn, buf.Len())
		}
		if !bytes.Equal(block.Marshal(b2), enc[4:]) {
			t.Fatal("WriteBlock∘ReadBlock is not a fixed point")
		}
	})
}
