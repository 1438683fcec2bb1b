package wire

import (
	"bytes"
	"sync"
	"testing"
)

// TestBufferPoolConcurrent hammers the pool from many goroutines (run with
// -race): every buffer must behave as exclusively owned between GetBuf and
// PutBuf — no aliasing between marshals in flight.
func TestBufferPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fill := byte(g + 1)
			for it := 0; it < 200; it++ {
				buf := GetBuf(64)
				if len(buf) != 0 {
					t.Errorf("GetBuf returned non-empty buffer (len %d)", len(buf))
					return
				}
				for i := 0; i < 64; i++ {
					buf = append(buf, fill)
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{fill}, 64)) {
					t.Error("buffer contents clobbered while owned")
					return
				}
				PutBuf(buf)
			}
		}(g)
	}
	wg.Wait()
}

func TestSizeUintField(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1}
	for _, v := range cases {
		var b []byte
		b = AppendUint(b, 5, v)
		if got := SizeUintField(5, v); got != len(b) {
			t.Fatalf("SizeUintField(5, %d)=%d, encoded %d bytes", v, got, len(b))
		}
	}
}
