// Package aliasguard is an analyzer fixture exercising the zero-copy
// aliasing and buffer-pool ownership contracts against the real
// bmac/internal/block and bmac/internal/wire APIs.
package aliasguard

import (
	"bmac/internal/block"
	"bmac/internal/wire"
)

// sink retains blocks, standing in for any structure that outlives the
// decoding call (a cache, a delivery window, ...).
var sink *block.Block

// putWhileResultReturned recycles the buffer and returns the alias: the
// canonical use-after-recycle.
func putWhileResultReturned(data []byte) (*block.Block, error) {
	b, err := block.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	wire.PutBuf(data) // want `wire\.PutBuf\(data\) recycles a buffer whose block\.Unmarshal result escapes`
	return b, nil
}

// putBeforeLastUse recycles the buffer, then keeps reading the alias.
func putBeforeLastUse(data []byte) int {
	b, err := block.Unmarshal(data)
	if err != nil {
		return 0
	}
	wire.PutBuf(data) // want `wire\.PutBuf\(data\) while the block\.Unmarshal result still aliases it`
	return len(b.Envelopes)
}

// deferredPutWithEscape: the deferred PutBuf runs at return, after the
// alias has escaped through the return value.
func deferredPutWithEscape(data []byte) *block.Block {
	defer wire.PutBuf(data) // want `wire\.PutBuf\(data\) recycles a buffer whose block\.Unmarshal result escapes`
	b, err := block.Unmarshal(data)
	if err != nil {
		return nil
	}
	return b
}

// putAfterLastUse is the legal pattern: decode, finish with the result,
// then recycle.
func putAfterLastUse(data []byte) int {
	b, err := block.Unmarshal(data)
	if err != nil {
		return 0
	}
	n := len(b.Envelopes)
	wire.PutBuf(data)
	return n
}

// unmarshalCopyEscapeHatch detaches the result first, so recycling and
// returning are both fine — the documented escape hatch.
func unmarshalCopyEscapeHatch(data []byte) (*block.Block, error) {
	b, err := block.UnmarshalCopy(data)
	if err != nil {
		return nil, err
	}
	wire.PutBuf(data)
	return b, nil
}

// pooledAliasStored decodes straight off a pooled buffer and stores the
// alias into a package variable: the buffer will be recycled by whoever
// owns it, corrupting the stored block.
func pooledAliasStored(n int, fill func([]byte) []byte) {
	buf := wire.GetBuf(n)
	buf = fill(buf)
	b, err := block.Unmarshal(buf) // want `block\.Unmarshal result aliases pooled buffer buf \(from wire\.GetBuf\) and escapes`
	if err != nil {
		return
	}
	sink = b
}

// pooledAliasReturnedViaReslice: pool provenance survives reslicing and
// plain reassignment.
func pooledAliasReturnedViaReslice(n int) (*block.Envelope, error) {
	buf := wire.GetBuf(n)
	tail := buf[:n]
	env, err := block.UnmarshalEnvelope(tail) // want `block\.UnmarshalEnvelope result aliases pooled buffer tail`
	if err != nil {
		return nil, err
	}
	return env, nil
}

// pooledLocalUse is legal: the decode result of a pooled buffer never
// leaves the function, and the buffer is recycled after the last use.
func pooledLocalUse(n int, fill func([]byte) []byte) int {
	buf := wire.GetBuf(n)
	buf = fill(buf)
	h, err := block.UnmarshalHeader(buf)
	if err != nil {
		wire.PutBuf(buf)
		return 0
	}
	num := int(h.Number)
	wire.PutBuf(buf)
	return num
}

// pooledCopyEscapes is legal: UnmarshalCopy detaches before the store.
func pooledCopyEscapes(n int, fill func([]byte) []byte) {
	buf := wire.GetBuf(n)
	buf = fill(buf)
	b, err := block.UnmarshalCopy(buf)
	wire.PutBuf(buf)
	if err != nil {
		return
	}
	sink = b
}

// pooledViewReturned reads a transaction off a pooled buffer and returns
// the view, whose slices alias the buffer its owner will recycle.
func pooledViewReturned(n int, fill func([]byte) []byte) (block.TxView, error) {
	buf := wire.GetBuf(n)
	buf = fill(buf)
	v, err := block.NewTxView(buf) // want `block\.NewTxView result aliases pooled buffer buf \(from wire\.GetBuf\) and escapes`
	return v, err
}

// putWhileViewRead recycles the payload, then reads the view over it.
func putWhileViewRead(payload []byte) int {
	v, err := block.NewTxView(payload)
	if err != nil {
		return 0
	}
	wire.PutBuf(payload) // want `wire\.PutBuf\(payload\) while the block\.NewTxView result still aliases it`
	return len(v.Creator())
}

// viewReadBeforePut is legal: the view is done with before the recycle.
func viewReadBeforePut(payload []byte) int {
	v, err := block.NewTxView(payload)
	if err != nil {
		return 0
	}
	n := len(v.Creator())
	wire.PutBuf(payload)
	return n
}
