// Package validator holds the per-block and per-transaction Fabric v1.4
// validation semantics every commit path shares: payload parsing (ParseTx),
// block verification (VerifyOrderer), transaction verification
// plus vscc over a range of transactions (VSCC), and the Result/Breakdown
// vocabulary the experiments read. It has no driver: the one engine that
// sequences these steps over a block is internal/pipeline.
//
// Per Fabric behaviour, vscc verifies ALL endorsements — it runs the
// ends_scheduler (policy.Scheduler) in Fabric's setting, every endorsement
// in one round with no short-circuit — and then reads the policy circuit
// over the register file the scheduler filled. Every operation is
// timestamped so the experiments can reproduce the bottleneck breakdowns of
// Figures 3 and 10.
package validator

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/policy"
)

// Breakdown records where validation time went for one block, mirroring the
// coarse breakdown of Figure 3b / Figure 10 (stage level) and the profiling
// view of Figure 3a (operation level).
//
// Stage durations are the committing goroutine's: Total is the block's wall
// time and the stages tile it. On more than one worker, vscc starts while
// that goroutine is still in Unmarshal and BlockVerify; the part of vscc
// that ran beside them is hidden under them, and VerifyVSCC is only what is
// left once block verification is done. The operation-level counters sum
// over every worker.
type Breakdown struct {
	// Stage-level (Figure 10 categories).
	Unmarshal    time.Duration
	BlockVerify  time.Duration
	VerifyVSCC   time.Duration
	MVCC         time.Duration
	StateDB      time.Duration // mvcc reads + commit writes
	LedgerCommit time.Duration // the ledger's Begin (record body: encode, checksum, write) plus its Finish (metadata, commit hash, index, any seal)
	Total        time.Duration

	// PrefetchWait is the residual stall the engine's mvcc stage spent
	// waiting for the async read-set prefetch to finish — the part of the
	// host-database latency that vscc did NOT hide (zero with prefetch off).
	PrefetchWait time.Duration

	// Operation-level (Figure 3a categories). ECDSACount is every signature
	// check the block cost, ECDSATime what they took.
	ECDSATime   time.Duration
	ECDSACount  int
	SHA256Time  time.Duration
	SHA256Count int

	// SigCacheHits is always 0: every peer verifies every signature it
	// commits (the process-wide verdict cache it counted was deleted). The
	// field stays because the benchmark module reads it for
	// fabcrypto.sig_cache_hit_rate.
	SigCacheHits int
	// ParseCacheHits is always 0: the engine parses every payload (the
	// parse-once table it counted was deleted). The field stays because
	// the benchmark module reads it for validator.parse_cache_hit_rate.
	ParseCacheHits int
}

// Add accumulates another breakdown (for experiment averaging).
func (b *Breakdown) Add(o Breakdown) {
	b.Unmarshal += o.Unmarshal
	b.BlockVerify += o.BlockVerify
	b.VerifyVSCC += o.VerifyVSCC
	b.MVCC += o.MVCC
	b.StateDB += o.StateDB
	b.LedgerCommit += o.LedgerCommit
	b.Total += o.Total
	b.PrefetchWait += o.PrefetchWait
	b.AddOps(&o)
}

// AddOps accumulates only the operation-level counters of o — how a worker
// goroutine's private tally is merged into its block's breakdown (stage
// durations are wall-clock windows measured once, outside the workers).
func (b *Breakdown) AddOps(o *Breakdown) {
	b.ECDSATime += o.ECDSATime
	b.ECDSACount += o.ECDSACount
	b.SHA256Time += o.SHA256Time
	b.SHA256Count += o.SHA256Count
	b.ParseCacheHits += o.ParseCacheHits
}

// Result is the outcome of validating and committing one block.
type Result struct {
	BlockNum   uint64
	BlockValid bool
	Flags      []byte // one block.ValidationCode per transaction
	CommitHash []byte
	Breakdown  Breakdown
}

// ErrBlockInvalid reports a block that failed block-level verification —
// a bad orderer signature or a DataHash that does not bind the delivered
// envelopes; the block is discarded without committing.
var ErrBlockInvalid = errors.New("validator: block verification failed")

// ParsedTx is one transaction as the engine parsed it: its payload's view,
// or the reason the payload would not parse.
type ParsedTx struct {
	View block.TxView
	Err  error
}

// ParseTx validates one envelope payload into a view of it (block.TxView),
// without allocating. The view aliases payloadBytes. A decode failure is
// recorded in Err rather than returned, because a malformed transaction
// invalidates only itself (VSCC flags it BadPayload), never the block.
//
// bmaclint:noalloc
func ParseTx(payloadBytes []byte) ParsedTx {
	v, err := block.NewTxView(payloadBytes)
	return ParsedTx{View: v, Err: err}
}

// CarriedSignatures counts the signatures b carries for a peer to verify:
// the orderer's, and the client's and every endorsement of each envelope
// whose payload decodes. An envelope that does not decode carries none a
// peer can check: VSCC flags it BadPayload without a verification.
func CarriedSignatures(b *block.Block) int {
	n := 1
	for i := range b.Envelopes {
		if v, err := block.NewTxView(b.Envelopes[i].PayloadBytes); err == nil {
			n += 1 + v.NumEndorsements()
		}
	}
	return n
}

// VerifyOrderer verifies the block metadata signature and that the header's
// DataHash binds the delivered envelopes, attributing hash and ECDSA time to
// the operation counters. The orderer's key is resolved through members
// (identity.Cache.Resolve), the consortium.
func VerifyOrderer(b *block.Block, members *identity.Cache, bd *Breakdown) error {
	// The orderer signature covers the header only; the header's DataHash
	// is what binds the envelope bytes. Recompute it so a block whose
	// envelopes were corrupted in flight (but still decoded) is rejected
	// here instead of committing divergent content.
	t := time.Now()
	dh := block.DataHash(b.Envelopes)
	bd.SHA256Time += time.Since(t)
	bd.SHA256Count++
	if !bytes.Equal(dh, b.Header.DataHash) {
		return errors.New("header DataHash does not match envelopes")
	}
	ms := &b.Metadata.Signature
	_, pub, err := members.Resolve(ms.Creator)
	if err != nil {
		return err
	}
	t = time.Now()
	digest := fabcrypto.Hash(block.OrdererSigningBytes(&b.Header, ms.Nonce, ms.Creator))
	bd.SHA256Time += time.Since(t)
	bd.SHA256Count++
	t = time.Now()
	err = fabcrypto.VerifyDigest(pub, digest[:], ms.Signature)
	bd.ECDSATime += time.Since(t)
	bd.ECDSACount++
	return err
}

// vsccScratch is the working memory of one VSCC call, pooled: the batch of
// signature checks, the ends_scheduler and its view of each transaction.
type vsccScratch struct {
	batch    fabcrypto.Batch
	sched    policy.Scheduler // the zero value: Fabric's vscc, one round
	txs      []policy.Tx
	ids      []identity.EncodedID       // every endorser of the range, transaction after transaction
	pubs     []*ecdsa.PublicKey         // and its key, nil for a certificate that does not parse
	starts   []int                      // where each transaction's endorsers start in ids and pubs
	refs     []int                      // batch check numbers: each client signature (−1: decided in collect), then each endorsement of the round (−1: unverifiable)
	digests  [][fabcrypto.HashSize]byte // what the batch's checks verify against; a slice handed to the batch still reads its digest after a regrow
	msgs     []fabcrypto.Message        // the messages of the checks waiting to be hashed
	checks   []vsccCheck                // and those checks
	verdicts []bool
}

// vsccCheck is a signature check waiting for its message's digest: refs[ref]
// gets its number in the batch.
type vsccCheck struct {
	pub *ecdsa.PublicKey
	sig []byte
	ref int
}

// scalarHash makes VSCC hash each message on its own instead of through
// fabcrypto.HashBatch. Only tests set it, so that both paths run on a CPU
// with the hash lanes.
var scalarHash bool

var vsccPool = sync.Pool{New: func() any { return new(vsccScratch) }}

// noPolicy stands in for the policy of a chaincode that has none installed:
// its endorsements are verified all the same, and nothing satisfies it.
var noPolicy = policy.Compile(&policy.Policy{Name: "none", Expr: policy.Or{}})

// queue holds a check of sig under pub over m's digest until flush.
func (sc *vsccScratch) queue(pub *ecdsa.PublicKey, m fabcrypto.Message, sig []byte, ref int) {
	sc.msgs = append(sc.msgs, m)
	sc.checks = append(sc.checks, vsccCheck{pub: pub, sig: sig, ref: ref})
}

// flush hashes the queued messages in one fabcrypto.HashBatch, one timed
// call and a SHA-256 count per digest, and adds their checks to the batch in
// the order they were queued.
//
// bmaclint:noalloc
func (sc *vsccScratch) flush(bd *Breakdown) {
	base := len(sc.digests)
	for range sc.msgs {
		sc.digests = append(sc.digests, [fabcrypto.HashSize]byte{})
	}
	digests := sc.digests[base:]
	t := time.Now()
	if scalarHash {
		for i := range sc.msgs {
			digests[i] = sc.msgs[i].Hash()
		}
	} else {
		fabcrypto.HashBatch(digests, sc.msgs)
	}
	bd.SHA256Time += time.Since(t)
	bd.SHA256Count += len(sc.msgs)
	t = time.Now()
	for i, c := range sc.checks {
		sc.refs[c.ref] = sc.batch.Add(c.pub, digests[i][:], c.sig)
	}
	bd.ECDSATime += time.Since(t)
	bd.ECDSACount += len(sc.checks)
	clear(sc.msgs) // the pool keeps no block alive
	clear(sc.checks)
	sc.msgs, sc.checks = sc.msgs[:0], sc.checks[:0]
}

// VSCC validates the transactions envs[i]/txs[i] into flags[i]: client
// signature, then all endorsement signatures, then the endorsement policy.
// It works in three steps so that the signatures of the whole range are
// verified as one batch of the engine: collect (client certificate → key,
// each endorser's identity; then every client digest in one
// fabcrypto.HashBatch, queue), run (the ends_scheduler in Fabric's
// setting — every endorsement in one round, no short-circuit — hashes the
// round's endorsement messages in one call and queues their checks the same
// way, and runs the batch), decide (the register files the scheduler
// filled). Since every check is queued before any verdict is known, a
// transaction whose client signature is bad has its endorsements verified
// anyway; its flag is BadSignature all the same. Every queued check counts
// once in bd.ECDSACount; a payload that does not decode, a creator or an
// endorser whose certificate does not parse queue none. Every certificate is
// resolved once, through members (identity.Cache.Resolve): an endorsement
// sets the register of the member that holds its certificate, and none for a
// certificate no member holds, whose key is parsed instead. A nil members is
// a consortium of no one.
func VSCC(envs []block.Envelope, txs []ParsedTx, flags []byte, policies map[string]*policy.Circuit, members *identity.Cache, bd *Breakdown) {
	sc := vsccPool.Get().(*vsccScratch)
	defer vsccPool.Put(sc)
	sc.batch.Reset()
	sc.txs, sc.ids, sc.pubs, sc.starts, sc.refs, sc.digests = sc.txs[:0], sc.ids[:0], sc.pubs[:0], sc.starts[:0], sc.refs[:0], sc.digests[:0]
	for i := range txs {
		p := &txs[i]
		sc.txs, sc.refs = append(sc.txs, policy.Tx{}), append(sc.refs, -1) // no Circuit, no check: decided here
		start := len(sc.ids)
		sc.starts = append(sc.starts, start)
		if p.Err != nil {
			flags[i] = byte(block.BadPayload)
			continue
		}
		_, pub, err := members.Resolve(p.View.Creator())
		if err != nil {
			flags[i] = byte(block.BadCreator)
			continue
		}
		sc.queue(pub, fabcrypto.Message{A: envs[i].PayloadBytes}, envs[i].Signature, i)
		for e := range p.View.Endorsements() {
			id, epub, _ := members.Resolve(e.Endorser) // bmaclint:allow errdiscard (a certificate that does not parse has a nil key: its endorsement is unverifiable)
			sc.ids, sc.pubs = append(sc.ids, id), append(sc.pubs, epub)
		}
		v := &sc.txs[i]
		v.Endorsers = sc.ids[start:]
		if v.Circuit = policies[string(p.View.ChaincodeName())]; v.Circuit == nil {
			v.Circuit = noPolicy
		}
	}
	sc.flush(bd)

	run := func() {
		t := time.Now()
		sc.batch.Run()
		bd.ECDSATime += time.Since(t)
	}
	sc.sched.Run(sc.txs, func(round []policy.Request) []bool {
		for _, rq := range round {
			e := txs[rq.Tx].View.Endorsement(rq.End)
			sc.refs = append(sc.refs, -1) // an unverifiable endorsement contributes nothing
			if epub := sc.pubs[sc.starts[rq.Tx]+rq.End]; epub != nil {
				sc.queue(epub, block.EndorsementMessage(txs[rq.Tx].View.ProposalResponseBytes(), e.Endorser), e.Signature, len(sc.refs)-1)
			}
		}
		sc.flush(bd)
		run()
		sc.verdicts = sc.verdicts[:0]
		for _, ref := range sc.refs[len(txs):] {
			sc.verdicts = append(sc.verdicts, ref >= 0 && sc.batch.Err(ref) == nil)
		}
		return sc.verdicts
	})
	if len(sc.refs) == len(txs) { // no endorsement issued: the client checks are still queued
		run()
	}

	for i := range txs {
		v := &sc.txs[i]
		switch {
		case sc.refs[i] < 0: // decided in collect
		case sc.batch.Err(sc.refs[i]) != nil:
			flags[i] = byte(block.BadSignature)
		case v.Circuit == noPolicy:
			flags[i] = byte(block.InvalidOther)
		case !v.Circuit.Evaluate(&v.RF):
			flags[i] = byte(block.EndorsementPolicyFailure)
		default:
			flags[i] = byte(block.Valid)
		}
	}
}
