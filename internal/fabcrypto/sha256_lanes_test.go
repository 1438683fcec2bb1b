package fabcrypto

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// hashPaths lists the ways this CPU can hash a batch: HashBatch as it
// chooses, each message on its own, and the 16-lane kernel whatever the
// batch where there is one.
func hashPaths() map[string]func(dst [][HashSize]byte, msgs []Message) {
	paths := map[string]func(dst [][HashSize]byte, msgs []Message){
		"batch": HashBatch,
		"one": func(dst [][HashSize]byte, msgs []Message) {
			for i := range msgs {
				dst[i] = msgs[i].Hash()
			}
		},
	}
	if haveHashLanes {
		paths["lanes"] = hashLanes
	}
	return paths
}

// checkHashes hashes msgs on every path of hashPaths and compares each
// digest with crypto/sha256's over the concatenation.
func checkHashes(t testing.TB, msgs []Message) {
	t.Helper()
	want := make([][HashSize]byte, len(msgs))
	for i, m := range msgs {
		want[i] = sha256.Sum256(append(append([]byte{}, m.A...), m.B...))
	}
	for name, hash := range hashPaths() {
		got := make([][HashSize]byte, len(msgs)+1) // one more: nothing is written past the batch
		hash(got, msgs)
		for i := range msgs {
			if got[i] != want[i] {
				t.Fatalf("%s: message %d of %d (%d ‖ %d bytes): digest %x, want %x",
					name, i, len(msgs), len(msgs[i].A), len(msgs[i].B), got[i], want[i])
			}
		}
		if got[len(msgs)] != ([HashSize]byte{}) {
			t.Fatalf("%s: wrote past the batch of %d", name, len(msgs))
		}
	}
}

// TestHashLanesReport says which paths this run tests HashBatch on.
func TestHashLanesReport(t *testing.T) {
	if haveHashLanes {
		t.Log("HashBatch: the 16-lane AVX-512 kernel, and one stream per message for small batches")
	} else {
		t.Log("HashBatch: one stream per message only; the 16-lane kernel is missing " + hashLanesMissing)
	}
}

func TestHashLanesMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 10000)
	rng.Read(data)
	// Every length to 300, which passes every padding edge (55/56, 63/64,
	// 119/120, …), split at every offset: one batch per length.
	for n := 0; n <= 300; n++ {
		msgs := make([]Message, n+1)
		for k := range msgs {
			msgs[k] = Message{A: data[:k], B: data[k:n]}
		}
		checkHashes(t, msgs)
	}
	// Random lengths to 5 000, random splits, every batch size to 40.
	for size := 1; size <= 40; size++ {
		msgs := make([]Message, size)
		for i := range msgs {
			off, n := rng.Intn(5000), rng.Intn(5001)
			k := rng.Intn(n + 1)
			msgs[i] = Message{A: data[off : off+k], B: data[off+k : off+n]}
		}
		checkHashes(t, msgs)
	}
	// Sizes vscc hashes: 13 payloads of 43 blocks, 26 endorsement messages
	// of 11, and the two mixed.
	var vscc []Message
	for i := 0; i < 13; i++ {
		vscc = append(vscc, Message{A: data[i : i+2692]})
	}
	for i := 0; i < 26; i++ {
		vscc = append(vscc, Message{A: data[i : i+120], B: data[5000+i : 5000+i+555]})
	}
	checkHashes(t, vscc[:13])
	checkHashes(t, vscc[13:])
	checkHashes(t, vscc)
}

func FuzzHashLanesMatchesStdlib(f *testing.F) {
	f.Add([]byte("abc"), uint16(1), uint8(1))
	f.Add(make([]byte, 300), uint16(120), uint8(26))
	f.Add(make([]byte, 64), uint16(56), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, count uint8) {
		// count%40+1 messages: prefixes of data of different lengths,
		// each split where split falls in it.
		msgs := make([]Message, int(count)%40+1)
		for i := range msgs {
			n := len(data) - i*len(data)/len(msgs)
			k := int(split) % (n + 1)
			msgs[i] = Message{A: data[:k], B: data[k:n]}
		}
		checkHashes(t, msgs)
	})
}

// vsccMessages is what one vscc range hashes: 13 creator payloads of
// 2 692 bytes, then 26 endorsement messages of 120 ‖ 555 bytes.
func vsccMessages() []Message {
	data := make([]byte, 13*2692+26*675)
	rand.New(rand.NewSource(2)).Read(data)
	var msgs []Message
	for i := 0; i < 13; i++ {
		msgs, data = append(msgs, Message{A: data[:2692]}), data[2692:]
	}
	for i := 0; i < 26; i++ {
		msgs, data = append(msgs, Message{A: data[:120], B: data[120:675]}), data[675:]
	}
	return msgs
}

// TestHashLanesNoAllocs hashes a range's payloads and endorsement messages
// (on the lanes where the CPU has them), and one of each alone (one stream
// each, the two-part one from the pool), without an allocation.
func TestHashLanesNoAllocs(t *testing.T) {
	msgs := vsccMessages()
	dst := make([][HashSize]byte, len(msgs))
	for _, batch := range [][]Message{msgs[:13], msgs[13:], msgs[:1], msgs[13:14]} {
		if n := testing.AllocsPerRun(20, func() { HashBatch(dst, batch) }); n != 0 {
			t.Errorf("HashBatch of %d messages allocates %.1f times", len(batch), n)
		}
	}
}

// BenchmarkHashOne prices one endorsement message (120 ‖ 555 bytes, 11
// blocks) on the standard library's stream: the yardstick of
// BenchmarkHashLanes.
func BenchmarkHashOne(b *testing.B) {
	m := vsccMessages()[13]
	b.SetBytes(int64(len(m.A) + len(m.B)))
	for b.Loop() {
		sinkDigest = m.Hash()
	}
}

// BenchmarkHashLanes prices msgs=N such messages on the 16-lane kernel in
// one batch, whatever N: it pays where it beats N × BenchmarkHashOne,
// which is where hashLaneMin comes from.
func BenchmarkHashLanes(b *testing.B) {
	if !haveHashLanes {
		b.Skip("no 16-lane kernel here: missing " + hashLanesMissing)
	}
	msgs := vsccMessages()[13:]
	dst := make([][HashSize]byte, len(msgs))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 26} {
		b.Run(fmt.Sprintf("msgs=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 675))
			for b.Loop() {
				hashLanes(dst, msgs[:n])
			}
		})
	}
}

var sinkDigest [HashSize]byte
