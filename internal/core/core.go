// Package core implements the Blockchain Machine block processor (paper
// §3.3, Figure 6): a functional emulation of the hardware parallel-pipelined
// validator.
//
// Structure, mirroring the RTL:
//
//	block_verify ──► block_validate ──► res_fifo ──► reg_map
//	                   │
//	                   ├─ tx_scheduler: pops the block's transactions and
//	                   │                their ends/rdset/wrset entries
//	                   ├─ N× tx_validator = tx_verify + tx_vscc
//	                   │     tx_vscc: E× ecdsa_engine, ends_scheduler with
//	                   │     short-circuit evaluation over the compiled
//	                   │     endorsement-policy circuits
//	                   └─ tx_mvcc_commit: sequential mvcc + hardware KVS
//
// The block-level stages are goroutines and overlap (block n+1 is verified
// while block n is validated, block n−1 read out). Inside block_validate the
// hardware's N×E engines working at once become rounds: every transaction's
// tx_verify request runs as one round, then the ends_scheduler
// (policy.Scheduler, E wide, short-circuiting) issues the endorsements round
// by round, each transaction's next ≤ E decided from its own register file,
// until none issues any. A round's requests are verified as batches of the
// ecdsa_engine on up to N goroutines. Early-abort conditions skip ECDSA work
// as soon as a transaction is known invalid, and the ends_scheduler stops
// issuing endorsement verifications once the policy output is decided — the
// two behaviours responsible for the 2of3-vs-3of3 asymmetry of Figure 12a —
// per transaction exactly as N tx_validators taking transactions one at a
// time would: what is verified and what is skipped does not depend on N.
//
// This package computes *results* with real cryptography; the cycle-level
// *timing* of the same architecture is modeled by internal/hwsim.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/fabcrypto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/statedb"
)

// Config parameterizes the block processor architecture, the "NxE"
// notation of the paper (e.g. 8x2 = 8 tx_validators, 2 engines per vscc).
type Config struct {
	// TxValidators is the number of parallel tx_verify+tx_vscc instances:
	// here, how many goroutines share a round's requests.
	TxValidators int
	// VSCCEngines is the number of ecdsa_engine instances per tx_vscc: how
	// many endorsements a transaction issues per round.
	VSCCEngines int
	// Policies maps chaincode name to its compiled policy circuit
	// (the generated ends_policy_evaluator).
	Policies map[string]*policy.Circuit
	// DisableShortCircuit turns off the ends_scheduler's short-circuit
	// evaluation (ablation: behave like Fabric, verify everything).
	DisableShortCircuit bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TxValidators < 1 {
		out.TxValidators = 1
	}
	if out.VSCCEngines < 1 {
		out.VSCCEngines = 1
	}
	return out
}

// Stats is collected by the block_monitor module per block.
type Stats struct {
	BlockVerifyTime time.Duration
	ValidateTime    time.Duration // block_validate stage wall time, the wait for the block's FIFO entries included
	MVCCCommitTime  time.Duration // the in-order mvcc + KVS-write loop alone, inside ValidateTime

	TxCount       int
	EndsVerified  int // ecdsa_engine invocations in tx_vscc
	EndsSkipped   int // endorsements discarded by short-circuit/early-abort
	EngineInvokes int // all ecdsa_engine invocations (block + tx + ends)
}

// Result is the validation result of one block, as exposed through the
// reg_map registers: block number, valid bit, per-transaction flags and
// block statistics.
type Result struct {
	BlockNum   uint64
	BlockValid bool
	Flags      []byte
	Stats      Stats
}

// Processor is the block processor. Create with New, start with Start;
// results appear in the RegMap.
type Processor struct {
	cfg  Config
	bufs *bmacproto.Buffers
	db   *statedb.HardwareKVS

	res    *fifo.FIFO[Result]
	regmap *RegMap

	// pendingPolicies is swapped into cfg.Policies, which block_validate
	// alone reads, at the next block boundary, modeling partial
	// reconfiguration of the ends_policy_evaluator without restarting the
	// peer (paper §5).
	polMu           sync.Mutex
	pendingPolicies map[string]*policy.Circuit // guarded by polMu

	// block_validate's working memory, reused from block to block.
	batches []fabcrypto.Batch // one per tx_validator
	reqs    []*bmacproto.VerifyRequest
	sched   policy.Scheduler
	vscc    []policy.Tx          // the ends_scheduler's view of each transaction
	ids     []identity.EncodedID // their endorsers, transaction after transaction
	txs     []txState            // the block's transactions, whose entries are slices of:
	ends    []bmacproto.EndsEntry
	reads   []bmacproto.ReadEntry
	writes  []bmacproto.WriteEntry
	written map[string]bool // keys the block's valid transactions wrote so far

	wg sync.WaitGroup
}

// New creates a block processor reading from bufs and committing to db.
func New(cfg Config, bufs *bmacproto.Buffers, db *statedb.HardwareKVS) *Processor {
	cfg = cfg.withDefaults()
	return &Processor{
		cfg:     cfg,
		bufs:    bufs,
		db:      db,
		res:     fifo.New[Result](8),
		regmap:  NewRegMap(),
		batches: make([]fabcrypto.Batch, cfg.TxValidators),
		sched:   policy.Scheduler{Width: cfg.VSCCEngines, ShortCircuit: !cfg.DisableShortCircuit},
		written: make(map[string]bool),
	}
}

// RegMap returns the hardware/software interface registers.
func (p *Processor) RegMap() *RegMap { return p.regmap }

// UpdatePolicies schedules a new set of compiled endorsement-policy
// circuits (a regenerated ends_policy_evaluator). The swap happens at the
// next block boundary — the partial-reconfiguration upgrade of paper §5
// that avoids restarting the peer when chaincodes change.
func (p *Processor) UpdatePolicies(circuits map[string]*policy.Circuit) {
	cp := make(map[string]*policy.Circuit, len(circuits))
	for k, v := range circuits {
		cp[k] = v
	}
	p.polMu.Lock()
	p.pendingPolicies = cp
	p.polMu.Unlock()
}

// applyPendingPolicies installs a scheduled policy table, if any; called
// at block boundaries only.
func (p *Processor) applyPendingPolicies() {
	p.polMu.Lock()
	if p.pendingPolicies != nil {
		p.cfg.Policies = p.pendingPolicies
		p.pendingPolicies = nil
	}
	p.polMu.Unlock()
}

// DB returns the in-hardware state database.
func (p *Processor) DB() *statedb.HardwareKVS { return p.db }

// verifiedBlock flows between the two block-level pipeline stages.
type verifiedBlock struct {
	entry      bmacproto.BlockEntry
	valid      bool
	verifyTime time.Duration
}

// Start launches the pipeline stages. Processing ends when the input
// buffers are closed; Wait blocks until then.
func (p *Processor) Start() {
	stage2 := make(chan verifiedBlock, 1) // 2-stage block-level pipeline

	// Stage 1: block_verify, with one dedicated ecdsa_engine.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(stage2)
		for {
			entry, ok := p.bufs.Block.Pop()
			if !ok {
				return
			}
			t := time.Now()
			valid := entry.Verify.Execute()
			stage2 <- verifiedBlock{entry: entry, valid: valid, verifyTime: time.Since(t)}
		}
	}()

	// Stage 2: block_validate + res_fifo writer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.res.Close()
		for vb := range stage2 {
			res, ok := p.validateBlock(vb)
			if !ok || p.res.Push(res) != nil {
				for range stage2 { // closed mid-block: let block_verify run out
				}
				return
			}
		}
	}()

	// block_monitor / reg_map writer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.regmap.Close()
		for {
			res, ok := p.res.Pop()
			if !ok {
				return
			}
			p.regmap.write(res)
		}
	}()
}

// Wait blocks until the pipeline has drained after the buffers were closed.
func (p *Processor) Wait() { p.wg.Wait() }

// txState is one transaction of the block in block_validate: its tx_fifo
// entry with the ends/rdset/wrset entries that entry counts, and its code so
// far.
type txState struct {
	entry  bmacproto.TxEntry
	ends   []bmacproto.EndsEntry
	reads  []bmacproto.ReadEntry
	writes []bmacproto.WriteEntry
	code   block.ValidationCode
}

// popTx is the tx_scheduler's read side: the next tx_fifo entry and the
// ends/rdset/wrset entries it counts, which the receiver writes after it,
// appended to the block's slabs. ok is false when the FIFOs were closed
// first.
func (p *Processor) popTx() (ok bool) {
	var tx txState
	if tx.entry, ok = p.bufs.Tx.Pop(); !ok {
		return false
	}
	e, r, w := len(p.ends), len(p.reads), len(p.writes)
	if p.ends, ok = popN(p.ends, p.bufs.Ends, tx.entry.NumEnds); !ok {
		return false
	}
	if p.reads, ok = popN(p.reads, p.bufs.Rdset, tx.entry.RdsetSize); !ok {
		return false
	}
	if p.writes, ok = popN(p.writes, p.bufs.Wrset, tx.entry.WrsetSize); !ok {
		return false
	}
	tx.ends, tx.reads, tx.writes = p.ends[e:], p.reads[r:], p.writes[w:]
	p.txs = append(p.txs, tx)
	return true
}

// popN appends the next n entries of f to dst.
func popN[T any](dst []T, f *fifo.FIFO[T], n int) ([]T, bool) {
	for range n {
		v, ok := f.Pop()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// validateBlock runs the block_validate stage for one block, level by level
// over all its transactions: every tx_verify request is round 0, and each
// further round holds what every transaction's ends_scheduler issues next.
// What a transaction issues depends on its own register file only, so its
// requests, verdicts and counters are those of a tx_validator that had the
// transaction to itself; a round is when the arithmetic runs. ok is false
// when the FIFOs closed before the whole block had arrived: a block that was
// not seen has no result.
func (p *Processor) validateBlock(vb verifiedBlock) (res Result, ok bool) {
	p.applyPendingPolicies()
	start := time.Now()
	p.txs, p.ends, p.reads, p.writes = p.txs[:0], p.ends[:0], p.reads[:0], p.writes[:0]
	for range vb.entry.NumTxs {
		if !p.popTx() {
			return Result{}, false
		}
	}
	txs := p.txs
	res = Result{BlockNum: vb.entry.BlockNum, BlockValid: vb.valid, Flags: make([]byte, len(txs))}
	st := &res.Stats
	st.TxCount = len(txs)
	st.BlockVerifyTime = vb.verifyTime

	// tx_verify, skipped when the block is already invalid (early abort),
	// for a transaction whose payload did not decode and for one whose
	// creator certificate did not parse.
	reqs := p.reqs[:0]
	if vb.valid {
		for i := range txs {
			if e := &txs[i].entry; !e.Malformed && e.Verify.Pub != nil {
				reqs = append(reqs, &e.Verify)
			}
		}
	}
	verdicts := p.runRound(reqs)
	st.EngineInvokes = 1 + len(reqs) // block_verify's and tx_verify's
	vscc, ids := p.vscc[:0], p.ids[:0]
	for i := range txs {
		tx := &txs[i]
		start := len(ids)
		for _, e := range tx.ends {
			ids = append(ids, e.EndorserID)
		}
		vscc = append(vscc, policy.Tx{Endorsers: ids[start:]}) // no Circuit: tx_vscc does not run
		switch {
		case !vb.valid:
			tx.code = block.InvalidOther
			continue
		case tx.entry.Malformed:
			tx.code = block.BadPayload
			continue
		case tx.entry.Verify.Pub == nil:
			tx.code = block.BadCreator
			continue
		}
		txValid := verdicts[0]
		if verdicts = verdicts[1:]; !txValid {
			tx.code = block.BadSignature
			continue
		}
		if vscc[i].Circuit = p.cfg.Policies[tx.entry.CCName]; vscc[i].Circuit == nil {
			tx.code = block.InvalidOther
		}
	}
	p.vscc, p.ids = vscc, ids

	// tx_vscc: the ends_scheduler's rounds.
	p.sched.Run(vscc, func(round []policy.Request) []bool {
		reqs = reqs[:0]
		for _, rq := range round {
			reqs = append(reqs, &txs[rq.Tx].ends[rq.End].Verify)
		}
		st.EndsVerified += len(reqs)
		return p.runRound(reqs)
	})
	p.reqs = reqs
	st.EngineInvokes += st.EndsVerified

	// tx_mvcc_commit, strictly in transaction order.
	mvccStart := time.Now()
	clear(p.written)
	for i := range txs {
		tx, v := &txs[i], &vscc[i]
		st.EndsSkipped += len(tx.ends) - v.Verified
		if tx.code == block.Valid && !v.Circuit.Evaluate(&v.RF) {
			tx.code = block.EndorsementPolicyFailure
		}
		p.mvccCommitOne(tx, block.Version{BlockNum: res.BlockNum, TxNum: uint64(i)}, p.written)
		res.Flags[i] = byte(tx.code)
	}
	st.MVCCCommitTime = time.Since(mvccStart)
	st.ValidateTime = time.Since(start)
	return res, true
}

// runRound executes one round's requests and returns their verdicts. The
// requests are cut into ranges of one full batch of the verification engine,
// which up to TxValidators goroutines — the caller's one of them — take as
// they come free; a range's signatures share their inversions
// (fabcrypto.Batch).
func (p *Processor) runRound(reqs []*bmacproto.VerifyRequest) []bool {
	verdicts := make([]bool, len(reqs))
	const chunk = fabcrypto.FullBatch
	var next atomic.Int64
	work := func(b *fabcrypto.Batch) {
		for lo := int(next.Add(chunk)) - chunk; lo < len(reqs); lo = int(next.Add(chunk)) - chunk {
			hi := min(lo+chunk, len(reqs))
			bmacproto.ExecuteBatch(b, reqs[lo:hi], verdicts[lo:hi])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < p.cfg.TxValidators && w*chunk < len(reqs); w++ {
		wg.Add(1)
		go func(b *fabcrypto.Batch) {
			defer wg.Done()
			work(b)
		}(&p.batches[w])
	}
	work(&p.batches[0])
	wg.Wait()
	return verdicts
}

// mvccCommitOne is the tx_mvcc_commit stage for one transaction: the read
// set against the database and the block's earlier writes, then the writes
// at version ver.
func (p *Processor) mvccCommitOne(tx *txState, ver block.Version, writtenInBlock map[string]bool) {
	if tx.code != block.Valid {
		return // mvcc and commit skipped for invalid transactions
	}
	for _, re := range tx.reads {
		rd := re.Read
		if writtenInBlock[rd.Key] {
			tx.code = block.MVCCReadConflict
			return
		}
		cur, _ := p.db.Version(rd.Key)
		if cur != rd.Version {
			tx.code = block.MVCCReadConflict
			return
		}
	}
	for _, we := range tx.writes {
		w := we.Write
		// Capacity exhaustion marks the transaction invalid rather than
		// wedging the pipeline; see paper §5 on database scaling.
		if err := p.db.Write(w.Key, w.Value, ver); err != nil {
			tx.code = block.InvalidOther
			return
		}
		writtenInBlock[w.Key] = true
	}
}

// GetBlockData is the primary API function of paper §3.5: it blocks until
// the hardware has a validation result and returns it in a form compatible
// with the peer software. ok=false means the pipeline has shut down.
func (p *Processor) GetBlockData() (Result, bool) {
	return p.regmap.Read()
}

// RegMap models the AXI-Lite register interface (paper §3.4): it holds one
// block result and blocks new writes until the CPU has read the previous
// result, so results are never overwritten.
type RegMap struct {
	mu       sync.Mutex
	nonFull  *sync.Cond
	nonEmpty *sync.Cond
	cur      Result
	full     bool
	closed   bool
}

// NewRegMap creates an empty register map.
func NewRegMap() *RegMap {
	r := &RegMap{}
	r.nonFull = sync.NewCond(&r.mu)
	r.nonEmpty = sync.NewCond(&r.mu)
	return r
}

// write stores a result, blocking until the previous one was read.
func (r *RegMap) write(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.full && !r.closed {
		r.nonFull.Wait()
	}
	if r.closed {
		return
	}
	r.cur = res
	r.full = true
	r.nonEmpty.Signal()
}

// Read blocks until a result is available. ok=false after Close with no
// pending result.
func (r *RegMap) Read() (Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.full && !r.closed {
		r.nonEmpty.Wait()
	}
	if !r.full {
		return Result{}, false
	}
	res := r.cur
	r.full = false
	r.nonFull.Signal()
	return res, true
}

// Close marks end-of-stream.
func (r *RegMap) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.nonFull.Broadcast()
	r.nonEmpty.Broadcast()
}

// String renders the architecture name, e.g. "8x2".
func (c Config) String() string {
	return fmt.Sprintf("%dx%d", c.TxValidators, c.VSCCEngines)
}
