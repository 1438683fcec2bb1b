package fabcrypto

import "crypto/ecdsa"

// Batch is a set of signature checks decided together. Add parses a
// signature to its request tuple, AddParts takes one as the BMac receiver's
// DER post-processor made it; both resolve the key once per batch and queue
// the check. Run verifies the queue as one batch of the engine (keytable.go);
// Err reads the verdicts. The zero value is ready; a Batch is reused through
// Reset and is not safe for concurrent use.
type Batch struct {
	errs  []error     // one verdict per check
	reqs  []verifyReq // the checks Run has to compute: reqs[j] is check slots[j]
	slots []int
	keys  []verifyKey // the batch's keys, resolved
}

// Reset empties b for its next checks.
func (b *Batch) Reset() {
	b.errs, b.reqs, b.slots, b.keys = b.errs[:0], b.reqs[:0], b.slots[:0], b.keys[:0]
}

// Add queues one check of a DER signature over a precomputed digest and
// returns its number; a malformed signature is ErrBadSignature at once.
// digest must stay untouched until Run returns.
//
// bmaclint:noalloc
func (b *Batch) Add(pub *ecdsa.PublicKey, digest, sig []byte) int {
	parts, err := DecodeDERToParts(sig)
	if err != nil {
		b.errs = append(b.errs, err)
		return len(b.errs) - 1
	}
	return b.AddParts(pub, digest, parts)
}

// AddParts queues one check of a signature that is already split into its
// halves — what the BMac receiver's DER post-processor hands the block
// processor — and returns its number, like Add.
//
// bmaclint:noalloc
func (b *Batch) AddParts(pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) int {
	b.reqs = append(b.reqs, verifyReq{verifyKey: b.resolve(pub), digest: digest, parts: parts})
	b.slots = append(b.slots, len(b.errs))
	b.errs = append(b.errs, nil)
	return len(b.errs) - 1
}

// resolve returns pub resolved for the engine, once per key and batch.
func (b *Batch) resolve(pub *ecdsa.PublicKey) verifyKey {
	for i := range b.keys {
		if b.keys[i].pub == pub {
			return b.keys[i]
		}
	}
	b.keys = append(b.keys, resolveKey(pub))
	return b.keys[len(b.keys)-1]
}

// Run decides every queued check, as one batch of the verification engine.
// Call it once, after the last Add.
func (b *Batch) Run() {
	engine.verify(b.reqs)
	b.store()
}

// RunScalar is Run with the batch's affine levels on the scalar kernel even
// where the CPU has the 8-lane one: the same verdicts, at the price the
// lanes replace. It exists so the hotpath record can measure the two side
// by side; on a CPU without the lanes it is Run.
func (b *Batch) RunScalar() {
	engine.verifyOn(b.reqs, false)
	b.store()
}

// Lanes reports whether this CPU runs the batch verifier's affine levels on
// the 8-lane kernel (amd64 with AVX-512F, AVX-512DQ and AVX-512 IFMA),
// which Run uses wherever it can.
func Lanes() bool { return haveLanes }

// store takes the verdicts of a run into the errors.
func (b *Batch) store() {
	for j := range b.reqs {
		b.errs[b.slots[j]] = verdict(b.reqs[j].valid)
	}
}

// Err returns check i's verdict, nil for a valid signature: final after
// Run, and at once for a malformed signature.
func (b *Batch) Err(i int) error { return b.errs[i] }
