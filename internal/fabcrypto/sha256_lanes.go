package fabcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"unsafe"
)

// Message is one message of HashBatch: the bytes A ‖ B, hashed where they
// lie (an endorsement digest covers the proposal response payload followed
// by the endorser's certificate). Either part may be empty.
type Message struct{ A, B []byte }

// Hash returns the SHA-256 digest of A ‖ B on the standard library's
// single stream (SHA-NI where the CPU has it).
//
// bmaclint:noalloc
func (m *Message) Hash() [HashSize]byte {
	switch {
	case len(m.B) == 0:
		return sha256.Sum256(m.A)
	case len(m.A) == 0:
		return sha256.Sum256(m.B)
	}
	s := streamPool.Get().(*stream)
	s.h.Reset()
	s.h.Write(m.A)
	s.h.Write(m.B)
	d := [HashSize]byte(s.h.Sum(s.sum[:0]))
	streamPool.Put(s)
	return d
}

// stream is a pooled hash.Hash with room for its sum, so that a two-part
// message is hashed without an allocation.
type stream struct {
	h   hash.Hash
	sum [HashSize]byte
}

var streamPool = sync.Pool{New: func() any { return &stream{h: sha256.New()} }}

// hashLaneMin is how many messages' worth of blocks a batch must hold for
// the 16-lane kernel to pay: a step of the kernel costs the same however
// many lanes hold a message. Over seven interleaved rounds on a 2-CPU Xeon
// (AVX-512, SHA-NI), BenchmarkHashLanes/msgs=N ÷ (N × BenchmarkHashOne),
// both over the 11-block endorsement messages of a vscc range, read
// 1.06 at 7 (0.80–1.15), 0.92 at 8 (0.70–0.98) and 0.52 at 16 (medians,
// ranges): 8 is the break-even.
const hashLaneMin = 8

// HashBatch sets dst[i] to the SHA-256 digest of msgs[i], for every
// i < len(msgs) ≤ len(dst): the digests of independent messages, sixteen at
// a time on the AVX-512 kernel (sha256_lanes_amd64.s) where the CPU has it
// and the batch fills the lanes, one at a time on Message.Hash everywhere
// else. A batch pays for the lanes when it holds at least hashLaneMin times
// the blocks of its longest message, which for messages of one size is
// hashLaneMin messages. The digests are crypto/sha256's either way.
//
// bmaclint:noalloc
func HashBatch(dst [][HashSize]byte, msgs []Message) {
	if haveHashLanes && lanesPay(msgs) {
		hashLanes(dst[:len(msgs)], msgs)
		return
	}
	for i := range msgs {
		dst[i] = msgs[i].Hash()
	}
}

// HashLanes reports whether this CPU runs HashBatch on the 16-lane kernel
// (amd64 with AVX-512F and AVX-512BW), which it uses wherever a batch fills
// it.
func HashLanes() bool { return haveHashLanes }

// lanesPay reports whether msgs hold at least hashLaneMin times the blocks
// of the longest of them.
func lanesPay(msgs []Message) bool {
	if len(msgs) < hashLaneMin {
		return false
	}
	total, longest := 0, 0
	for i := range msgs {
		b := paddedBlocks(&msgs[i])
		total, longest = total+b, max(longest, b)
	}
	return total >= hashLaneMin*longest
}

// paddedBlocks is the number of 64-byte blocks m takes once padded: its
// bytes, the 0x80 byte and the 8-byte length.
func paddedBlocks(m *Message) int { return (len(m.A) + len(m.B) + 8 + 64) / 64 }

// hashState is sixteen SHA-256 states, one per lane of the kernel: word i of
// lane l at [i][l].
type hashState [8][16]uint32

// hashIV is SHA-256's initial state (FIPS 180-4, 5.3.3).
var hashIV = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// hashLane is what one lane of the kernel is hashing: message msg (−1:
// none), as runs of whole blocks in memory (plan), of which runs[run] is
// next.
type hashLane struct {
	msg, run int
	runs     [4]hashRun
	buf      [3 * 64]byte // the block across A and B, then the last one or two
}

// hashRun is n blocks, one after the other from p.
type hashRun struct {
	p *byte
	n int
}

// hashLanes is HashBatch on the kernel. Each lane takes the next message
// when its own ends; every step hashes, in every lane that holds a message,
// as many blocks as all of them have left of their current runs. A lane
// without a message hashes another lane's blocks for nothing. Everything
// lives on its stack.
//
// bmaclint:noalloc
func hashLanes(dst [][HashSize]byte, msgs []Message) {
	var (
		st    hashState
		lanes [16]hashLane
		ptrs  [16]*byte
	)
	next := 0
	start := func(l int) {
		lanes[l].msg, lanes[l].run = -1, 0
		if next == len(msgs) {
			return
		}
		lanes[l].msg = next
		lanes[l].runs = plan(&msgs[next], &lanes[l].buf)
		for lanes[l].runs[lanes[l].run].n == 0 { // the last run never is
			lanes[l].run++
		}
		next++
		for i, w := range hashIV {
			st[i][l] = w
		}
	}
	for l := range lanes {
		start(l)
	}
	for {
		busy, n := -1, 0
		for l := range lanes {
			if lanes[l].msg < 0 {
				continue
			}
			r := lanes[l].runs[lanes[l].run]
			if ptrs[l] = r.p; busy < 0 || r.n < n {
				n = r.n
			}
			busy = l
		}
		if busy < 0 {
			return
		}
		for l := range lanes {
			if lanes[l].msg < 0 {
				ptrs[l] = ptrs[busy]
			}
		}
		sha256Lanes(&st, &ptrs, n)
		for l := range lanes {
			ln := &lanes[l]
			if ln.msg < 0 {
				continue
			}
			k := ln.run
			if ln.runs[k].n -= n; ln.runs[k].n > 0 {
				// Through lanes, not ln: a pointer stored through a
				// pointer would move lanes to the heap.
				lanes[l].runs[k].p = (*byte)(unsafe.Add(unsafe.Pointer(ptrs[l]), 64*n))
				continue
			}
			for k++; k < len(ln.runs) && ln.runs[k].n == 0; k++ {
			}
			if ln.run = k; k < len(ln.runs) {
				continue
			}
			d := &dst[ln.msg]
			for i := range st {
				binary.BigEndian.PutUint32(d[4*i:], st[i][l])
			}
			start(l)
		}
	}
}

// plan lays m out as runs of whole blocks: straight from A, the block
// across A and B copied into buf, straight from B, and the message's last
// bytes with the padding (one block, or two when the length does not fit
// after the 0x80) in buf. A run may be empty, but not the last.
//
// bmaclint:noalloc
func plan(m *Message, buf *[3 * 64]byte) (runs [4]hashRun) {
	a, end := len(m.A), len(m.A)+len(m.B)
	last := end &^ 63 // where the last, partial block begins
	pos := a &^ 63
	if pos > 0 {
		runs[0] = hashRun{&m.A[0], pos / 64}
	}
	if pos < a && pos < last {
		m.read(buf[:64], pos)
		runs[1] = hashRun{&buf[0], 1}
		pos += 64
	}
	if pos < last {
		runs[2] = hashRun{&m.B[pos-a], (last - pos) / 64}
	}
	tail := buf[64:]
	n := m.read(tail[:64], last)
	size := 64
	if n > 64-9 {
		size = 128
	}
	clear(tail[n:size])
	tail[n] = 0x80
	binary.BigEndian.PutUint64(tail[size-8:size], uint64(end)*8)
	runs[3] = hashRun{&tail[0], size / 64}
	return runs
}

// read copies m's bytes from pos on into dst and returns how many it
// copied.
func (m *Message) read(dst []byte, pos int) int {
	n := 0
	if pos < len(m.A) {
		n = copy(dst, m.A[pos:])
		pos += n
	}
	if n < len(dst) {
		n += copy(dst[n:], m.B[pos-len(m.A):])
	}
	return n
}
