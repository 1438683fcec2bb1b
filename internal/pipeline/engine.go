package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/ledger"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// Shape selects how the engine lays one block's work out over goroutines.
// Both shapes run the same four stages and produce bit-identical flags,
// commit hashes and state; they differ in parse fan-out and in how the
// decide stage orders the mvcc checks.
type Shape int

const (
	// Scheduled, the default, fans every stage out: payloads are decoded
	// and vscc'd on Workers goroutines, and mvcc is dependency-scheduled —
	// independent transactions are decided concurrently against the
	// multi-version cache, so a submitted block's mvcc can also start while
	// its predecessor is still being flushed.
	Scheduled Shape = iota
	// Fabric14 is the paper's software baseline (Figure 2a), the validation
	// phase of a Fabric v1.4 peer with its known bottlenecks: payloads
	// decoded one at a time, vscc fanned over Workers (the "vscc threads" ==
	// vCPUs knob), mvcc strictly in transaction order against the state
	// database itself. It builds no dependency graph and no version cache.
	Fabric14
)

// Config parameterizes the commit engine.
type Config struct {
	// Shape picks the intra-block schedule (default Scheduled).
	Shape Shape
	// Workers is the goroutine budget per parallel stage — vscc, and in the
	// Scheduled shape also unmarshal and mvcc. Zero means GOMAXPROCS.
	Workers int
	// Policies maps chaincode name to its endorsement policy.
	Policies map[string]*policy.Policy
	// SkipLedger excludes the ledger commit (the paper's metrics exclude it
	// "for direct comparison between hardware and software" — §4.2).
	SkipLedger bool
	// Depth is the number of blocks allowed in flight between stages when
	// blocks are fed through Submit (default 4). Higher values buy more
	// inter-block overlap at the cost of memory.
	Depth int
	// Prefetch enables the async read-set warm-up: distinct read-set keys
	// are read from the backend as soon as a block is unmarshalled, so
	// slow-backend misses (e.g. HybridKVS host reads) are absorbed while
	// the block is still in vscc. Verdicts are identical either way.
	Prefetch bool
	// PrefetchWorkers bounds the warm-up reader pool (default Workers).
	PrefetchWorkers int
	// SigCache, when non-nil, memoizes signature verdicts so a signature
	// already seen by ANY path sharing the cache (another engine, a replay)
	// costs one hash + lookup instead of a curve verification. Verdicts are
	// identical either way.
	SigCache *fabcrypto.SigCache
	// CertCache, when non-nil, interns parsed X.509 identity certificates:
	// the same creator/endorser/orderer certs recur in every transaction,
	// and x509.ParseCertificate rivals the ECDSA math in allocations.
	CertCache *fabcrypto.CertCache
	// ParseCache, when non-nil, interns ParseTx results by payload hash so
	// an envelope decoded by any sharing path is unmarshaled once per
	// process (parse-once). Cached results are shared and read-only.
	ParseCache *validator.ParseCache
	// Metrics, when non-nil, mirrors each flushed block's Breakdown into
	// the telemetry registry's per-stage histograms. Nil (telemetry off)
	// costs one predicted branch per block.
	Metrics *telemetry.ValidatorMetrics
}

func (c *Config) verifyOpts() validator.VerifyOpts {
	return validator.VerifyOpts{SigCache: c.SigCache, CertCache: c.CertCache}
}

// Result is the outcome of validating and committing one block.
type Result = validator.Result

// Outcome pairs a block result with its error, preserving submission order
// on the Results channel. Err is what ValidateAndCommit would have returned
// (e.g. validator.ErrBlockInvalid for a bad orderer signature).
type Outcome struct {
	Res *Result
	Err error
}

// job carries one block through the four stages.
type job struct {
	raw   []byte // the marshaled block, when it came in marshaled
	start time.Time

	b    *block.Block // the engine's own copy of the Block value: its metadata is written, its envelopes are not
	txs  []validator.ParsedTx
	res  *Result
	err  error
	bd   validator.Breakdown
	skip bool // no commit: unmarshal or block verification failed

	// warm tracks the block's async read-set prefetch; the decide stage
	// waits on it so a warm-up read and a committed write can't interleave
	// mid-check. nil when prefetch is off or the block never parsed.
	warm *sync.WaitGroup
}

// Engine is the one type that validates and commits a block. A block goes
// through four stages, each a plain function of its job — parse (unmarshal,
// plus the async read-set prefetch), verify (block verification + vscc),
// decide (mvcc) and flush (state database, then ledger).
//
// ValidateAndCommit runs the four in order on the caller's goroutine.
// Submit/Results run the same four on stage goroutines connected by
// channels, so consecutive blocks overlap; those goroutines are started by
// the first Submit (or Results), and an engine that is only ever driven
// synchronously never creates them.
//
// The engine runs over any statedb.KVS backend; with cfg.Prefetch the
// warm-up readers hide a slow backend's read latency under vscc.
//
// Blocks must arrive in increasing header-number order from a single
// goroutine, and ValidateAndCommit must not be called while submitted
// blocks are still in flight.
type Engine struct {
	cfg      Config
	circuits map[string]*policy.Circuit // cfg.Policies, compiled once
	store    statedb.KVS
	cache    *MVCache // nil in the Fabric14 shape, whose mvcc reads the store itself
	led      *ledger.Ledger
	pf       *prefetcher // nil when cfg.Prefetch is off

	startOnce sync.Once // guards in, out and done
	in        chan *job
	out       chan Outcome
	done      chan struct{}
	closeOnce sync.Once
}

// New creates an engine over the given state database and ledger (led may
// be nil when cfg.SkipLedger is set).
func New(cfg Config, store statedb.KVS, led *ledger.Ledger) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Depth < 1 {
		cfg.Depth = 4
	}
	if cfg.PrefetchWorkers < 1 {
		cfg.PrefetchWorkers = cfg.Workers
	}
	e := &Engine{cfg: cfg, circuits: make(map[string]*policy.Circuit, len(cfg.Policies)), store: store, led: led}
	for cc, p := range cfg.Policies {
		e.circuits[cc] = policy.Compile(p)
	}
	if cfg.Shape == Scheduled {
		e.cache = NewMVCache(store)
	}
	if cfg.Prefetch {
		e.pf = newPrefetcher(store, cfg.PrefetchWorkers)
	}
	return e
}

// Store returns the backing state database.
func (e *Engine) Store() statedb.KVS { return e.store }

// PrefetchedKeys reports the total number of warm-up reads issued by the
// prefetch stage (0 when prefetch is off).
func (e *Engine) PrefetchedKeys() int {
	if e.pf == nil {
		return 0
	}
	return e.pf.prefetched()
}

// ValidateAndCommit runs one marshaled block through the four stages on the
// caller's goroutine: Unmarshal, then what ValidateAndCommitBlock does, with
// the block decode counted in the unmarshal stage (the paper measures it).
// Within the block the stages still fan out as the shape says; inter-block
// overlap requires Submit.
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
	e.parse(j)
	e.verify(j)
	e.decide(j)
	e.flush(j)
	return j.res, j.err
}

// Submit feeds one marshaled block into the stage goroutines. Results
// arrive on Results() in submission order.
func (e *Engine) Submit(raw []byte) {
	e.startOnce.Do(e.start)
	e.in <- &job{raw: raw, start: time.Now()}
}

// Results delivers one Outcome per submitted block, in order.
func (e *Engine) Results() <-chan Outcome {
	e.startOnce.Do(e.start)
	return e.out
}

// start connects the four stage functions with channels, one goroutine per
// group of stages.
func (e *Engine) start() {
	groups := [][]func(*job){{e.parse}, {e.verify}, {e.decide}, {e.flush}}
	if e.cfg.Shape == Fabric14 {
		// In-order mvcc checks read versions against the store itself, so a
		// block cannot be decided before its predecessor is flushed: the
		// two stages share a goroutine, as in a Fabric committer.
		groups = [][]func(*job){{e.parse}, {e.verify}, {e.decide, e.flush}}
	}
	e.in = make(chan *job, e.cfg.Depth)
	e.out = make(chan Outcome, e.cfg.Depth)
	e.done = make(chan struct{})
	in := e.in
	for _, stages := range groups {
		next := make(chan *job, e.cfg.Depth)
		go func(in <-chan *job) {
			defer close(next)
			for j := range in {
				for _, stage := range stages {
					stage(j)
				}
				next <- j
			}
		}(in)
		in = next
	}
	go func() {
		defer close(e.done)
		defer close(e.out)
		for j := range in {
			e.out <- Outcome{Res: j.res, Err: j.err}
		}
	}()
}

// Close drains submitted blocks and releases the engine's goroutines. The
// engine must not be used afterwards. The ledger, if any, is NOT closed (the
// caller owns it).
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		// Spending the start once here both orders this read of e.in after
		// a start that did happen and rules out one happening later.
		e.startOnce.Do(func() {})
		if e.in != nil {
			close(e.in)
			<-e.done
		}
		if e.pf != nil {
			e.pf.close()
		}
	})
}

// --- stage 1: unmarshal ---

func (e *Engine) parse(j *job) {
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
	j.txs = make([]validator.ParsedTx, len(b.Envelopes))
	// With a ParseCache, payloads any sharing path already decoded are
	// served from the interning table instead of re-walked.
	workers := e.cfg.Workers
	if e.cfg.Shape == Fabric14 {
		workers = 1
	}
	fanOut(len(j.txs), workers, 1, &j.bd, func(lo, hi int, ops *validator.Breakdown) {
		for i := lo; i < hi; i++ {
			var hit bool
			j.txs[i], hit = e.cfg.ParseCache.ParseTx(b.Envelopes[i].PayloadBytes)
			if hit {
				ops.ParseCacheHits++
			}
		}
	})
	j.bd.Unmarshal = time.Since(t)
	// Read sets are known now: kick off the async warm-up so backend
	// misses resolve while this block is in the vscc stage.
	if e.pf != nil {
		j.warm = e.pf.start(j.txs)
	}
}

// --- stage 2: block verification + vscc ---

func (e *Engine) verify(j *job) {
	if j.skip {
		return
	}
	j.res = &Result{BlockNum: j.b.Header.Number, Flags: make([]byte, len(j.txs))}
	flags := j.res.Flags
	opts := e.cfg.verifyOpts()

	t := time.Now()
	blockErr := validator.VerifyOrderer(j.b, opts, &j.bd)
	j.bd.BlockVerify = time.Since(t)
	if blockErr != nil {
		for i := range flags {
			flags[i] = byte(block.InvalidOther)
		}
		j.err = fmt.Errorf("%w: %v", validator.ErrBlockInvalid, blockErr)
		j.skip = true
		return
	}
	j.res.BlockValid = true

	t = time.Now()
	n := len(j.txs)
	fanOut(n, e.cfg.Workers, VSCCRange(n, e.cfg.Workers), &j.bd, func(lo, hi int, ops *validator.Breakdown) {
		validator.VSCC(j.b.Envelopes[lo:hi], j.txs[lo:hi], flags[lo:hi], e.circuits, opts, ops)
	})
	j.bd.VerifyVSCC = time.Since(t)
}

// maxVSCCRange caps the transactions vscc'd as one range, whose signatures
// are verified as one batch: 13 transactions of three signatures are one
// fabcrypto.FullBatch, past which a longer range saves about a twentieth of
// the arithmetic at twice the length. What it costs depends on who else is
// running, which a stage's time should not: a worker that is slowed holds a
// whole range while the others have run out, two engines validating one
// block through one SigCache each compute a range before either has stored
// it, and a worker's scratch (≈ 6 KB per signature) has to stay beside the
// tables in its core's cache. The hotpath row ecdsa_verify_batch runs at it.
const maxVSCCRange = fabcrypto.FullBatch / 3

// VSCCRange is how many transactions of an n-transaction block the verify
// stage hands a worker at a time: an even share, so that a 1–2-tx block is
// still spread over the workers, capped at maxVSCCRange.
func VSCCRange(n, workers int) int {
	return max(1, min((n+workers-1)/workers, maxVSCCRange))
}

// --- stage 3: mvcc ---

func (e *Engine) decide(j *job) {
	if j.skip {
		return
	}
	if j.warm != nil {
		// Residual stall only: with vscc ahead of us the warm-ups have
		// normally landed already. This is the latency the prefetch
		// failed to hide (reported so experiments can show the hiding).
		tWait := time.Now()
		j.warm.Wait()
		j.bd.PrefetchWait = time.Since(tWait)
	}
	t := time.Now()
	if e.cfg.Shape == Fabric14 {
		e.decideInOrder(j)
	} else {
		e.decideScheduled(j)
	}
	j.bd.MVCC = time.Since(t)
	j.b.Metadata.ValidationFlags = j.res.Flags
}

// decideInOrder re-checks each still-valid transaction's read set against
// the state database and the keys written earlier in this block, strictly
// in transaction order.
func (e *Engine) decideInOrder(j *job) {
	flags := j.res.Flags
	written := make(map[string]bool)
	for i := range j.txs {
		if flags[i] != byte(block.Valid) {
			continue
		}
		rw := j.txs[i].RW
		conflict := false // an earlier tx in this block already wrote a key read here
		for _, r := range rw.Reads {
			if written[r.Key] {
				conflict = true
				break
			}
		}
		if conflict || e.store.MVCCCheck(rw.Reads) != nil {
			flags[i] = byte(block.MVCCReadConflict)
			continue
		}
		for _, w := range rw.Writes {
			written[w.Key] = true
		}
	}
}

// decideScheduled makes the same decisions through the dependency graph:
// a transaction is checked as soon as every earlier writer of its read set
// has been, against the version cache's pre-block snapshot.
func (e *Engine) decideScheduled(j *job) {
	blockNum := j.b.Header.Number
	flags := j.res.Flags
	accs := make([]Access, len(j.txs))
	for i := range j.txs {
		if flags[i] == byte(block.Valid) {
			accs[i] = AccessOf(j.txs[i].RW)
		}
	}
	RunGraph(BuildGraph(accs), e.cfg.Workers, func(i int) {
		if flags[i] != byte(block.Valid) {
			return
		}
		rw := j.txs[i].RW
		for _, r := range rw.Reads {
			// An earlier valid transaction of this block wrote the key:
			// same verdict as the in-order written-in-block check. The
			// scheduler guarantees every such writer is already decided.
			if e.cache.WrittenBy(r.Key, blockNum, uint64(i)) {
				flags[i] = byte(block.MVCCReadConflict)
				return
			}
		}
		if !e.cache.MVCCCheck(rw.Reads, blockNum) {
			flags[i] = byte(block.MVCCReadConflict)
			return
		}
		// Decision is final: publish the writes so dependents (and the
		// next block's decide stage) observe them before the flush lands.
		ver := block.Version{BlockNum: blockNum, TxNum: uint64(i)}
		for _, w := range rw.Writes {
			e.cache.Put(w.Key, w.Value, ver)
		}
	})
}

// --- stage 4: state database + ledger flush ---

func (e *Engine) flush(j *job) {
	if !j.skip {
		blockNum := j.b.Header.Number
		t := time.Now()
		for i := range j.txs {
			if j.res.Flags[i] != byte(block.Valid) {
				continue
			}
			e.store.WriteBatch(j.txs[i].RW.Writes, block.Version{BlockNum: blockNum, TxNum: uint64(i)})
		}
		if e.cache != nil {
			e.cache.Retire(blockNum)
		}
		j.bd.StateDB = j.bd.MVCC + time.Since(t) // mvcc reads + commit writes

		if !e.cfg.SkipLedger && e.led != nil {
			tLed := time.Now()
			ch, err := e.led.Commit(j.b)
			if err != nil {
				j.res, j.err = nil, fmt.Errorf("ledger commit block %d: %w", blockNum, err)
				return
			}
			j.res.CommitHash = ch
			j.bd.LedgerCommit = time.Since(tLed)
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

// fanOut runs fn(lo, hi, ops) over [0, n) cut into ranges of chunk on up to
// `workers` goroutines, which take the ranges in order as they come free,
// and waits. ops is where fn tallies operation counters: bd itself when the
// work stays on the caller's goroutine, otherwise a goroutine-private tally
// merged into bd once every goroutine has finished.
func fanOut(n, workers, chunk int, bd *validator.Breakdown, fn func(lo, hi int, ops *validator.Breakdown)) {
	workers = min(workers, (n+chunk-1)/chunk)
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n), bd)
		}
		return
	}
	tallies := make([]validator.Breakdown, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(ops *validator.Breakdown) {
			defer wg.Done()
			for lo := int(next.Add(int64(chunk))) - chunk; lo < n; lo = int(next.Add(int64(chunk))) - chunk {
				fn(lo, min(lo+chunk, n), ops)
			}
		}(&tallies[w])
	}
	wg.Wait()
	for w := range tallies {
		bd.AddOps(&tallies[w])
	}
}
