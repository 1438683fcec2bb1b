// Package pipeline implements the commit engine: the one type that
// validates and commits a block (Engine), over the per-transaction Fabric
// semantics of internal/validator. Every software peer runs it, laid out as
// the validation phase of a Fabric v1.4 peer — the paper's software
// baseline (Figure 2a):
//
//   - unmarshal: the block's payloads parsed one at a time, in order, each
//     into a view over its bytes (block.TxView), each vscc range handed on
//     as soon as its last payload is parsed;
//   - vscc over Workers (the "vscc threads" == vCPUs knob), each signature
//     range one batch, with block verification beside it on the caller,
//     which also takes each released range's read-write sets out of its
//     views and, once the block is verified, writes the ledger record's
//     body (ledger.Begin: everything but the metadata the commit sets);
//   - mvcc strictly in transaction order against the state database, each
//     range's as soon as its vscc and every earlier range's is done, then
//     the state database writes of its valid transactions;
//   - flush: the rest of the ledger record (ledger.Finish: the flags and
//     the commit hash), its index entry and any segment seal.
//
// The caller (ValidateAndCommit, ValidateAndCommitBlock) is one of the
// Workers; at Workers = 1 every stage runs in order on it, with no
// goroutine. Over a store with a fast tier the engine also runs the async
// read-set prefetch (prefetch.go), which hides the store's misses under
// vscc and changes no verdict. Flags, commit hash and final state are
// bit-identical to a naive reference validator on every block; the
// differential tests in this package prove it.
//
// The conflict analyzer (analyzer.go) is not on the commit path: it builds
// a block's read-after-write dependency graph so a workload's contention can
// be reported (edges, critical path).
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// Config parameterizes the commit engine.
type Config struct {
	// Workers is the vscc worker budget, the caller included. Zero means
	// GOMAXPROCS.
	Workers int
	// Policies maps chaincode name to its endorsement policy.
	Policies map[string]*policy.Policy
	// PrefetchWorkers bounds the read-set warm-up reader pool (default
	// Workers); it has readers only over a store with a fast tier (see New).
	PrefetchWorkers int
	// Members is the consortium: every certificate, the orderer's, each
	// creator's and each endorser's, resolves through it to its key and
	// member ID (see validator.VSCC); nil, no endorsement counts.
	Members *identity.Cache
	// Metrics, when non-nil, mirrors each flushed block's Breakdown into
	// the telemetry registry's per-stage histograms. Nil (telemetry off)
	// costs one predicted branch per block.
	Metrics *telemetry.ValidatorMetrics
}

// Result is the outcome of validating and committing one block.
type Result = validator.Result

// job carries one block through the three stages.
type job struct {
	raw   []byte // the marshaled block, when it came in marshaled
	start time.Time

	b    *block.Block // the engine's own copy of the Block value: its metadata is written, its envelopes are not
	txs  []validator.ParsedTx
	rw   []block.RWSet // rw[i]: transaction i's read-write set (see rwSets)
	res  *Result
	err  error
	bd   validator.Breakdown
	skip bool // no commit: unmarshal or block verification failed, or the ledger refused the block

	ranges rangePool // the block's vscc ranges and the workers taking them

	// mvcc's place in the block (see decideRanges): the keys written by the
	// transactions found valid so far, and how many ranges are decided.
	written map[string]bool
	decided int

	// warm tracks the block's async read-set prefetch; the decide stage
	// waits on it so a warm-up read and a committed write can't interleave
	// mid-check. nil without a prefetcher or when the block never parsed.
	warm *sync.WaitGroup
}

// Engine is the one type that validates and commits a block. A block goes
// through three stages, each a plain function of its job, called in order
// by the caller — parseVerify (unmarshal, the async read-set prefetch, block
// verification, the ledger record's body and vscc), decide (mvcc and the
// state database writes, of the ranges parseVerify left undecided) and
// flush (the ledger record's metadata).
//
// The engine runs over any statedb.KVS backend; over one with a fast tier
// to warm (see New) the prefetch readers hide its misses under vscc.
//
// Blocks must arrive in increasing header-number order from a single
// goroutine.
type Engine struct {
	cfg      Config
	circuits map[string]*policy.Circuit // cfg.Policies, compiled once
	store    statedb.KVS
	led      *ledger.Ledger
	pf       *prefetcher // nil unless the store can be warmed
}

// New creates an engine over the given state database and ledger. A nil led
// skips the ledger commit (the paper's metrics exclude it "for direct
// comparison between hardware and software" — §4.2); the commit hash is
// computed either way. The async read-set prefetch runs if and only if the
// store has a fast tier to warm (it implements Warm, as HybridKVS does):
// over any other store a warm-up read would cost as much as the read it
// saves.
func New(cfg Config, store statedb.KVS, led *ledger.Ledger) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PrefetchWorkers < 1 {
		cfg.PrefetchWorkers = cfg.Workers
	}
	e := &Engine{cfg: cfg, circuits: make(map[string]*policy.Circuit, len(cfg.Policies)), store: store, led: led}
	for cc, p := range cfg.Policies {
		e.circuits[cc] = policy.Compile(p)
	}
	if w, ok := store.(warmer); ok {
		e.pf = newPrefetcher(w, cfg.PrefetchWorkers)
	}
	return e
}

// Store returns the backing state database.
func (e *Engine) Store() statedb.KVS { return e.store }

// PrefetchedKeys reports the total number of warm-up reads issued by the
// prefetch stage (0 without one).
func (e *Engine) PrefetchedKeys() int {
	if e.pf == nil {
		return 0
	}
	return e.pf.prefetched()
}

// ValidateAndCommit runs one marshaled block through the three stages:
// Unmarshal, then what ValidateAndCommitBlock does, with the block decode
// counted in the unmarshal stage (the paper measures it).
func (e *Engine) ValidateAndCommit(raw []byte) (*Result, error) {
	return e.run(&job{raw: raw, start: time.Now()})
}

// ValidateAndCommitBlock validates and commits a block its caller has
// already decoded — a peer's receive path decodes each block once, from the
// frame it read. b is read-only to the engine: it works on a copy of the
// Block value, which owns the metadata the commit sets (validation flags,
// commit hash), and never writes through b's envelopes. So one decoded block
// may be committed by several engines at once. The engine's caches and
// state may keep slices of b's envelope bytes: the buffer b was decoded from
// must not be reused afterwards (see the block package's aliasing contract).
func (e *Engine) ValidateAndCommitBlock(b *block.Block) (*Result, error) {
	own := *b
	return e.run(&job{b: &own, start: time.Now()})
}

func (e *Engine) run(j *job) (*Result, error) {
	e.parseVerify(j)
	e.decide(j)
	e.flush(j)
	return j.res, j.err
}

// Close stops the prefetch readers, if any; a second Close is a no-op. The
// engine must not be used afterwards. The ledger, if any, is NOT closed (the
// caller owns it).
func (e *Engine) Close() {
	if e.pf != nil {
		e.pf.close()
	}
}

// --- stage 1: unmarshal, block verification and vscc ---

// parseVerify parses the block's payloads one at a time, in order, on the
// caller, releasing each vscc range as soon as its last payload is parsed;
// then it verifies the block, begins its ledger record and takes the ranges
// still unclaimed like any helper. Up to Workers−1 helper goroutines vscc the released ranges
// meanwhile, so unmarshal and block verification run beside vscc (the
// paper's block_verify beside tx_verify, Fig. 6). At Workers = 1 no helper
// starts and the order is Fabric v1.4's: unmarshal, block verify, vscc.
func (e *Engine) parseVerify(j *job) {
	t := time.Now()
	if j.b == nil {
		b, err := block.Unmarshal(j.raw)
		if err != nil {
			j.err = err
			j.skip = true
			return
		}
		j.b = b
	}
	b := j.b
	n := len(b.Envelopes)
	j.txs = make([]validator.ParsedTx, n)
	j.rw = make([]block.RWSet, n)
	j.res = &Result{BlockNum: b.Header.Number, Flags: make([]byte, n)}
	p := &j.ranges
	p.init(n, e.cfg.Workers)
	// Each helper tallies its operation counters privately; they are merged
	// into the block's breakdown once every helper has finished.
	tallies := make([]validator.Breakdown, vsccHelpers(p.count, e.cfg.Workers))
	for i := range tallies {
		p.wg.Add(1)
		go func(ops *validator.Breakdown) {
			defer p.wg.Done()
			e.vsccRanges(j, ops, false)
		}(&tallies[i])
	}
	// One payload at a time, as Fabric v1.4 does. Once a range is
	// released to vscc, its read-write sets are taken out of its views here,
	// beside the helpers' vscc, not on the stages after the join.
	for i := range j.txs {
		j.txs[i] = validator.ParseTx(b.Envelopes[i].PayloadBytes)
		if i+1 == n || (i+1)%p.size == 0 {
			p.release((i + p.size) / p.size)
			rwSets(j, i/p.size*p.size, i+1)
		}
	}
	j.bd.Unmarshal = time.Since(t)
	// Read sets are known now: kick off the async warm-up so backend
	// misses resolve while this block is in vscc.
	if e.pf != nil {
		j.warm = e.pf.start(j.rw)
	}

	t = time.Now()
	blockErr := validator.VerifyOrderer(b, e.cfg.Members, &j.bd)
	j.bd.BlockVerify = time.Since(t)
	// A verified block's record is known but for its metadata: the ledger
	// writes the rest now, beside the helpers' vscc, so the flush is left
	// only the metadata. A block the ledger refuses is decided no further,
	// so none of its writes reaches the state database.
	var ledErr error
	if blockErr == nil && e.led != nil {
		t = time.Now()
		ledErr = e.led.Begin(b)
		j.bd.LedgerCommit = time.Since(t)
	}
	if blockErr != nil || ledErr != nil {
		p.failed.Store(true)
	}
	// Only the vscc left after block verification is the caller's time in
	// vscc; the rest ran hidden under unmarshal and block verification.
	// Between its ranges the caller decides the ranges vetted so far, while
	// the helpers vscc, unless the block's warm-ups have to land first;
	// that time is the state database's, not vscc's.
	t = time.Now()
	e.vsccRanges(j, &j.bd, j.warm == nil)
	p.wg.Wait()
	j.bd.VerifyVSCC = time.Since(t) - j.bd.StateDB
	for i := range tallies {
		j.bd.AddOps(&tallies[i])
	}
	if ledErr != nil {
		j.res, j.err = nil, fmt.Errorf("ledger commit block %d: %w", b.Header.Number, ledErr)
		j.skip = true
		return
	}
	if blockErr != nil {
		for i := range j.res.Flags {
			j.res.Flags[i] = byte(block.InvalidOther)
		}
		j.err = fmt.Errorf("%w: %v", validator.ErrBlockInvalid, blockErr)
		j.skip = true
		return
	}
	j.res.BlockValid = true
}

// vsccHelpers is how many goroutines beside the caller vscc a block of
// `ranges` vscc ranges: one fewer than the workers, and fewer than the
// ranges, since the caller takes one too.
func vsccHelpers(ranges, workers int) int {
	return max(0, min(workers, ranges)-1)
}

// vsccRanges validates the block's ranges as it claims them, until none is
// left to start. With decide (the caller only: mvcc is its alone), each
// range is followed by decideRanges.
func (e *Engine) vsccRanges(j *job, ops *validator.Breakdown, decide bool) {
	p := &j.ranges
	for r, ok := p.claim(); ok; r, ok = p.claim() {
		lo, hi := r*p.size, min((r+1)*p.size, len(j.txs))
		validator.VSCC(j.b.Envelopes[lo:hi], j.txs[lo:hi], j.res.Flags[lo:hi], e.circuits, e.cfg.Members, ops)
		p.vetted[r].Store(true)
		if decide {
			e.decideRanges(j)
		}
	}
}

// rwSets takes the read-write sets of transactions [lo, hi) out of their
// views, so that mvcc and the commit, which run alone after the join, only
// read slices. A write's key is copied into a string the state database
// may keep; a read's key is lent from the frame (see lend), since it is
// only looked up. One allocation holds the range's reads, one its writes.
func rwSets(j *job, lo, hi int) {
	reads, writes := 0, 0
	for i := lo; i < hi; i++ {
		reads, writes = reads+j.txs[i].View.NumReads(), writes+j.txs[i].View.NumWrites()
	}
	rs, ws := make([]block.KVRead, 0, reads), make([]block.KVWrite, 0, writes)
	for i := lo; i < hi; i++ {
		v := &j.txs[i].View
		r0, w0 := len(rs), len(ws)
		for key, ver := range v.Reads() {
			rs = append(rs, block.KVRead{Key: lend(key), Version: ver})
		}
		ws = v.AppendWrites(ws)
		j.rw[i] = block.RWSet{Reads: rs[r0:len(rs):len(rs)], Writes: ws[w0:len(ws):len(ws)]}
	}
}

// rangePool hands a block's vscc ranges to its workers: the caller releases
// them in order as their payloads are parsed, and every worker, the caller
// included, claims them in order.
type rangePool struct {
	size, count int           // transactions per range; ranges in the block
	next        atomic.Int64  // the next range to claim
	failed      atomic.Bool   // block verification failed: start no further range
	vetted      []atomic.Bool // vetted[r]: range r's vscc is done, its flags final until mvcc
	wg          sync.WaitGroup

	mu       sync.Mutex
	parsed   sync.Cond // broadcast when released grows
	released int       // guarded by mu; ranges whose payloads are all parsed
}

// init cuts an n-transaction block into ranges for workers.
func (p *rangePool) init(n, workers int) {
	p.size = VSCCRange(n, workers)
	p.count = (n + p.size - 1) / p.size
	p.vetted = make([]atomic.Bool, p.count)
	p.parsed.L = &p.mu
}

// release marks ranges [0, r) parsed.
func (p *rangePool) release(r int) {
	p.mu.Lock()
	p.released = r
	p.mu.Unlock()
	p.parsed.Broadcast()
}

// claim takes the next range once it is released. ok is false when every
// range is taken or block verification has failed.
func (p *rangePool) claim() (r int, ok bool) {
	r = int(p.next.Add(1)) - 1
	if r >= p.count {
		return 0, false
	}
	p.mu.Lock()
	for p.released <= r {
		p.parsed.Wait()
	}
	p.mu.Unlock()
	if p.failed.Load() {
		return 0, false
	}
	return r, true
}

// maxVSCCRange caps the transactions vscc'd as one range, whose signatures
// are verified as one batch: 13 transactions of three signatures are one
// fabcrypto.FullBatch, past which a longer range saves about a twentieth of
// the arithmetic at twice the length. What it costs depends on who else is
// running, which a stage's time should not: a worker that is slowed holds a
// whole range while the others have run out, and a worker's scratch has to
// stay beside the tables in its core's cache: after a 39-signature range on
// the 8-lane kernel the engine's batchScratch holds 242 KB at the capacities
// append leaves (≈ 6.2 KB per signature) and 3.2 KB of lane temporaries, and
// vscc's own scratch about 0.35 KB per signature (the request, its digest,
// message and check); the hash lanes add 5 KB of stack while a batch is
// hashed. The hotpath rows ecdsa_verify_batch and sha256_range_lanes run at
// it.
const maxVSCCRange = fabcrypto.FullBatch / 3

// VSCCRange is how many transactions of an n-transaction block the verify
// stage hands a worker at a time: an even share, so that a 1–2-tx block is
// still spread over the workers, capped at maxVSCCRange.
func VSCCRange(n, workers int) int {
	return max(1, min((n+workers-1)/workers, maxVSCCRange))
}

// --- stage 2: mvcc and the state database writes ---

// decide decides the ranges parseVerify left undecided: all of them when
// the block had warm-ups to wait for, otherwise those the caller's last
// vscc range overtook.
func (e *Engine) decide(j *job) {
	if j.warm != nil {
		// Residual stall only: with vscc ahead of us the warm-ups have
		// normally landed already. This is the latency the prefetch
		// failed to hide (reported so experiments can show the hiding).
		// Waited for on every path, a failed block's too: the warm-ups
		// read keys lent from the frame.
		tWait := time.Now()
		j.warm.Wait()
		j.bd.PrefetchWait = time.Since(tWait)
	}
	if j.skip {
		return
	}
	e.decideRanges(j)
	j.b.Metadata.ValidationFlags = j.res.Flags
}

// decideRanges re-checks, strictly in transaction order, each still-valid
// transaction's read set against the state database and the keys written
// earlier in this block, one range at a time from the first undecided,
// for as long as the next range's vscc is done; after each range it
// writes the range's valid transactions to the state database. A write
// changes no later verdict: a later read of the key is an in-block
// conflict whatever the database holds, and every other key is as the
// previous block left it. Only the caller runs it, and only once block
// verification has passed.
func (e *Engine) decideRanges(j *job) {
	p := &j.ranges
	if j.decided == p.count || !p.vetted[j.decided].Load() {
		return
	}
	if j.written == nil {
		j.written = make(map[string]bool)
	}
	flags := j.res.Flags
	for ; j.decided < p.count && p.vetted[j.decided].Load(); j.decided++ {
		t := time.Now()
		lo, hi := j.decided*p.size, min((j.decided+1)*p.size, len(j.txs))
		for i := lo; i < hi; i++ {
			if flags[i] != byte(block.Valid) {
				continue
			}
			rw := &j.rw[i]
			conflict := false // an earlier tx in this block already wrote a key read here
			for _, r := range rw.Reads {
				if j.written[r.Key] {
					conflict = true
					break
				}
			}
			if conflict || e.store.MVCCCheck(rw.Reads) != nil {
				flags[i] = byte(block.MVCCReadConflict)
				continue
			}
			for _, w := range rw.Writes {
				j.written[w.Key] = true
			}
		}
		tw := time.Now()
		for i := lo; i < hi; i++ {
			if flags[i] == byte(block.Valid) {
				e.store.WriteBatch(j.rw[i].Writes, block.Version{BlockNum: j.b.Header.Number, TxNum: uint64(i)})
			}
		}
		j.bd.MVCC += tw.Sub(t)
		j.bd.StateDB += time.Since(t) // mvcc reads + commit writes
	}
}

// lend returns key's bytes as a string without copying them, for a lookup
// that keeps nothing: a map index, or a statedb.KVS read, which by the
// KVS contract copies a key before it stores one. The string aliases the
// frame, so it must never be stored anywhere that outlives the block.
func lend(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// --- stage 3: ledger finish ---

// flush finishes the ledger record parseVerify began: the metadata, with the
// flags decide set, and the commit hash.
func (e *Engine) flush(j *job) {
	if !j.skip {
		blockNum := j.b.Header.Number
		if e.led != nil {
			tLed := time.Now()
			ch, err := e.led.Finish(j.b)
			if err != nil {
				j.res, j.err = nil, fmt.Errorf("ledger commit block %d: %w", blockNum, err)
				return
			}
			j.res.CommitHash = ch
			j.bd.LedgerCommit += time.Since(tLed)
		} else {
			// Compute the commit hash chain value anyway for cross-checking.
			j.res.CommitHash = block.CommitHash(nil, j.b.Header.DataHash, j.res.Flags)
		}
	}
	if j.res == nil {
		return // the block never parsed
	}
	j.bd.Total = time.Since(j.start)
	j.res.Breakdown = j.bd
	if !j.skip {
		e.cfg.Metrics.ObserveBlock(len(j.txs), j.bd.Unmarshal, j.bd.BlockVerify, j.bd.VerifyVSCC,
			j.bd.MVCC, j.bd.StateDB, j.bd.LedgerCommit, j.bd.PrefetchWait, j.bd.Total)
	}
}
