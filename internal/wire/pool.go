package wire

import "sync"

// Marshal-buffer pool. The hot commit path marshals a block several times
// per commit (ledger append, data hashing, delivery frames); on paths that
// own the buffer for the whole marshal-write-discard cycle, a pooled buffer
// turns those into zero steady-state allocations.
//
// Ownership contract: a buffer obtained from GetBuf is exclusively the
// caller's until PutBuf returns it. PutBuf must only be called when no
// slice derived from the buffer (sub-slices included) escapes — e.g. a
// marshaled block that was fully written to a file or socket. Buffers that
// are retained (a delivery window, an unmarshaled block's backing array)
// must never come from the pool. One retained use has a fixed owner and
// release point instead: the BMac receiver rebuilds each block's envelopes
// into GetBuf chunks, which travel with the bmacproto.AssembledBlock to the
// host, and the BMac peer returns them with AssembledBlock.Release once
// its Ledger.Commit of the block has returned.

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// hdrPool recycles the *[]byte headers themselves, so a steady-state
// GetBuf/PutBuf cycle performs zero allocations (a naive sync.Pool.Put of
// a fresh &b would heap-allocate one slice header per cycle).
var hdrPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty buffer with capacity at least sizeHint, from the
// pool. The caller owns it until PutBuf.
//
// bmaclint:noalloc
func GetBuf(sizeHint int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	hdrPool.Put(bp)
	if cap(b) < sizeHint {
		b = make([]byte, 0, sizeHint) // bmaclint:allow allocbound (pooled buffer undersized: rare regrow, amortized away)
	}
	return b
}

// PutBuf returns a buffer to the pool. Safe to call with a buffer that did
// not come from GetBuf (it is simply adopted).
//
// bmaclint:noalloc
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp := hdrPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}
