// Package orderer implements the ordering service: it batches submitted
// transaction envelopes into blocks, establishes a total order through Raft
// consensus, signs each block, and delivers it — through Gossip to
// software-only peers and through the BMac protocol to hardware peers,
// exactly the dual path of paper §3.5 ("the same orderer can send blocks to
// both software-only and BMac peers").
//
// Block cutting tracks load. A batch closes when it reaches BatchSize; as
// soon as it is non-empty and raft has applied every earlier batch (the
// idle cut: the pipeline, not a clock, paces the blocks, so a batch holds
// whatever arrived during one raft round trip — one or two transactions on
// a quiet network, full blocks under overload); and at the latest
// BatchTimeout after its oldest envelope arrived, which only happens while
// raft has no leader or a delivery hook is stuck (a stuck hook stalls the
// apply loop, so no later batch is applied). A batch counts as applied once
// createBlock takes it, before the block is signed and delivered: the idle
// rule waits for raft, not for the peers. At most one idle-cut batch is
// ever unapplied, so the block rate is bounded by raft's round trip and by
// the arrival rate.
//
// The orderer follows the raft leader by itself, as a Raft client does: it
// re-proposes its unapplied batches where the leader is now, and a batch
// that commits twice becomes one block.
package orderer

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/raft"
	"bmac/internal/wire"
)

// DeliverFunc receives each newly created block, in order. Hooks are where
// the Gossip broadcaster and the BMac protocol sender attach.
type DeliverFunc func(*block.Block) error

// Config parameterizes the ordering service.
type Config struct {
	// BatchSize is the maximum number of transactions per block.
	BatchSize int
	// BatchTimeout is the upper bound on how long an envelope may wait in
	// a batch: a partial batch is normally cut as soon as the orderer is
	// idle, and this bound only decides while raft is leaderless or an
	// earlier block is stuck on its way out.
	BatchTimeout time.Duration
	// Channel is the channel ID stamped on blocks.
	Channel string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BatchSize == 0 {
		out.BatchSize = 100
	}
	if out.BatchTimeout == 0 {
		out.BatchTimeout = 100 * time.Millisecond
	}
	return out
}

// CutReason says which rule closed a batch.
type CutReason uint8

// The cut reasons. In a healthy network almost every cut is CutIdle at low
// load and CutSize under overload; CutTimeout is a symptom — raft had no
// leader, or an earlier block was stuck on its way out of the orderer.
const (
	CutSize    CutReason = iota // the batch reached BatchSize
	CutIdle                     // raft had applied every earlier batch
	CutTimeout                  // the oldest envelope had waited BatchTimeout
	CutReasons = 3
)

func (r CutReason) String() string {
	return [CutReasons]string{"size", "idle", "timeout"}[r]
}

// ErrStopped reports submission to a stopped orderer.
var ErrStopped = errors.New("orderer: stopped")

// Orderer is one ordering-service node.
type Orderer struct {
	cfg Config
	id  *identity.Identity

	// cutMu serializes cuts, so batches reach raft in sequence order and a
	// submitter's envelopes are never reordered by a size cut overtaking
	// the cut loop. Taken before mu.
	cutMu sync.Mutex

	mu       sync.Mutex
	raftNode *raft.Node // guarded by mu; swapped by follow when another node leads
	pending  []block.Envelope
	oldest   time.Time // guarded by mu; when pending[0] arrived, raft last refused a batch or, with none pending, the last cut
	refused  bool      // guarded by mu; raft refused the last batch (no leader): only the timeout retries
	delivery []DeliverFunc
	height   uint64
	prevHash []byte
	blocks   int
	txs      int
	cuts     [CutReasons]int // guarded by mu; batches cut, by reason
	fatalErr error

	// Exactly-once accounting across leader failover: every cut batch is
	// stamped with a sequence number; inflight holds cut-but-unapplied
	// batches (re-proposed by follow), and the applied record says which
	// batch sequences already became blocks (a re-proposed batch may
	// commit twice).
	// Sequences apply almost in order, so the record is a high-water mark
	// plus the few sequences applied ahead of it.
	batchSeq  uint64              // guarded by mu; last assigned batch sequence
	inflight  map[uint64][]byte   // guarded by mu; batch seq -> marshaled batch
	appliedTo uint64              // guarded by mu; every batch seq <= appliedTo has been applied
	applied   map[uint64]struct{} // guarded by mu; batch seqs > appliedTo applied out of order

	wake  chan struct{} // the cut rules may have changed: pending went non-empty, a block left
	moved chan struct{} // follow swapped the raft node: read the new node's log
	stop  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// New creates an orderer bound to a raft node and starts its batching and
// delivery loops. The raft node must be started by the caller (it may be a
// single-node "solo-like" cluster, as in the paper's experiments); the
// orderer moves to another node of its cluster when that one leads.
func New(cfg Config, id *identity.Identity, raftNode *raft.Node) *Orderer {
	o := &Orderer{
		cfg:      cfg.withDefaults(),
		id:       id,
		raftNode: raftNode,
		inflight: make(map[uint64][]byte),
		applied:  make(map[uint64]struct{}),
		wake:     make(chan struct{}, 1),
		moved:    make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	o.wg.Add(2)
	go o.cutLoop()
	go o.applyLoop()
	go func() {
		o.wg.Wait()
		close(o.done)
	}()
	return o
}

// OnDeliver registers a delivery hook, invoked for every created block in
// order. Register hooks before submitting transactions.
func (o *Orderer) OnDeliver(fn DeliverFunc) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.delivery = append(o.delivery, fn)
}

// Submit queues a transaction envelope for ordering.
func (o *Orderer) Submit(env *block.Envelope) error {
	select {
	case <-o.stop:
		return ErrStopped
	default:
	}
	o.mu.Lock()
	if len(o.pending) == 0 {
		o.oldest = time.Now()
	}
	o.pending = append(o.pending, *env)
	n := len(o.pending)
	o.mu.Unlock()
	switch {
	case n >= o.cfg.BatchSize:
		// A full batch goes out at once, whatever is still in flight: an
		// overloaded orderer emits full blocks back to back.
		o.cut(CutSize)
	case n == 1:
		o.signal()
	}
	return nil
}

// signal wakes cutLoop to re-evaluate the cut rules.
func (o *Orderer) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// cut proposes the current batch to raft for the given reason. The batch
// is stamped with a fresh sequence number and tracked as inflight until
// its block is created — Propose returns at leader-log acceptance, not
// commit, so a leader killed in between would otherwise lose the batch
// silently. After a refusal, or once the bound node no longer leads, the
// parked batches go to the leader first (follow); with no leader the cut
// is refused again, and only the timeout rule retries it.
func (o *Orderer) cut(reason CutReason) {
	o.cutMu.Lock()
	defer o.cutMu.Unlock()
	o.mu.Lock()
	node, refused := o.raftNode, o.refused
	o.mu.Unlock()
	if (refused || node.Leader() != node) && !o.follow() {
		o.refuse()
		return
	}
	o.mu.Lock()
	o.refused = false
	if len(o.pending) == 0 {
		o.oldest = time.Now() // the parked batches' clock: look at them again in BatchTimeout
	}
	// A size cut re-checks its rule: between Submit seeing the batch full
	// and getting here, the cut loop may have taken it and left only what
	// arrived since.
	if len(o.pending) == 0 || (reason == CutSize && len(o.pending) < o.cfg.BatchSize) {
		o.mu.Unlock()
		return
	}
	batch := o.pending
	o.pending = nil
	o.batchSeq++
	seq := o.batchSeq
	o.cuts[reason]++
	node = o.raftNode
	o.mu.Unlock()

	data := marshalBatch(batch, seq)
	o.mu.Lock()
	o.inflight[seq] = data
	o.mu.Unlock()
	if node.Propose(data) != nil {
		// The batch stays parked under its sequence, and follow
		// re-proposes the identical bytes: a refusal with ErrStopped is
		// ambiguous (the node may have replicated the entry before the
		// stop was observed), and a batch that commits twice under one
		// sequence becomes one block.
		o.refuse()
	}
}

// follow binds the orderer to the raft node that leads now and
// re-proposes every parked (cut-but-unapplied) batch through it, in
// sequence order. It reports whether they all reached a leader's log.
func (o *Orderer) follow() bool {
	o.mu.Lock()
	leader := o.raftNode.Leader()
	if leader == nil {
		o.mu.Unlock()
		return false
	}
	if leader != o.raftNode {
		o.raftNode = leader
		select {
		case o.moved <- struct{}{}:
		default:
		}
	}
	seqs := make([]uint64, 0, len(o.inflight))
	for seq := range o.inflight {
		seqs = append(seqs, seq)
	}
	o.mu.Unlock()
	slices.Sort(seqs)
	for _, seq := range seqs {
		o.mu.Lock()
		data, ok := o.inflight[seq]
		o.mu.Unlock()
		if ok && leader.Propose(data) != nil {
			return false
		}
	}
	return true
}

// refuse records that raft took no batch: the idle rule stands down and
// the timeout rule retries, BatchTimeout from now. With nothing in flight
// the idle rule would otherwise re-propose at once, in a spin, for the
// whole election.
func (o *Orderer) refuse() {
	o.mu.Lock()
	o.refused = true
	o.oldest = time.Now()
	o.mu.Unlock()
	o.signal()
}

// cutLoop closes partial batches. It sleeps until something changes what
// the rules say — the first envelope of a batch, a block leaving, a refused
// cut — and holds a timer only while a batch is waiting behind something
// or parked: a batch in flight for BatchTimeout is looked at again by a
// timeout cut, which moves it to the leader if its node no longer leads.
func (o *Orderer) cutLoop() {
	defer o.wg.Done()
	timer := time.NewTimer(o.cfg.BatchTimeout)
	defer timer.Stop()
	for {
		timer.Stop() // armed below, only while a batch waits
		o.mu.Lock()
		waiting := len(o.pending) > 0
		parked := len(o.inflight) > 0
		left := time.Until(o.oldest.Add(o.cfg.BatchTimeout))
		idle := !parked && !o.refused
		o.mu.Unlock()
		if (waiting || parked) && left <= 0 {
			o.cut(CutTimeout)
			continue
		}
		if waiting && idle {
			o.cut(CutIdle)
			continue
		}
		var expired <-chan time.Time
		if waiting || parked {
			timer.Reset(left)
			expired = timer.C
		}
		select {
		case <-o.stop:
			return
		case <-o.wake:
		case <-expired:
		}
	}
}

// applyLoop turns the bound node's committed entries into blocks. Its log
// index carries over when follow moves the orderer to another node.
func (o *Orderer) applyLoop() {
	defer o.wg.Done()
	cursor := 0 // the log index of the last entry taken
	for {
		o.mu.Lock()
		node := o.raftNode
		o.mu.Unlock()
		entries, more := node.Committed(cursor)
		for _, e := range entries {
			if err := o.createBlock(e.Data); err != nil {
				// A delivery-hook or decode failure is fatal for this
				// node: record it so Err/Stop surface it instead of the
				// node dying silently.
				o.fail(err)
				return
			}
			cursor = e.Index
		}
		if len(entries) > 0 {
			continue
		}
		select {
		case <-o.stop:
			return
		case <-o.moved:
		case <-more:
		}
	}
}

// fail records the first fatal loop error.
func (o *Orderer) fail(err error) {
	o.mu.Lock()
	if o.fatalErr == nil {
		o.fatalErr = err
	}
	o.mu.Unlock()
}

// Err reports the fatal error that killed a batching or delivery loop,
// if any.
func (o *Orderer) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fatalErr
}

// createBlock turns one committed raft entry (a batch) into the next
// block. A batch sequence seen before is skipped: a re-proposed batch may
// legitimately commit twice — deduplication here is what makes the
// pipeline exactly-once.
func (o *Orderer) createBlock(batchData []byte) error {
	envs, seq, err := unmarshalBatch(batchData)
	if err != nil {
		return err
	}
	o.mu.Lock()
	if !o.markAppliedLocked(seq) {
		o.mu.Unlock()
		return nil
	}
	delete(o.inflight, seq)
	num := o.height
	prev := o.prevHash
	o.mu.Unlock()

	b, err := block.NewBlock(num, prev, envs, o.id)
	if err != nil {
		return fmt.Errorf("create block %d: %w", num, err)
	}

	o.mu.Lock()
	o.height = num + 1
	o.prevHash = block.HeaderHash(&b.Header)
	o.blocks++
	o.txs += len(envs)
	hooks := make([]DeliverFunc, len(o.delivery))
	copy(hooks, o.delivery)
	o.mu.Unlock()

	for _, fn := range hooks {
		if err := fn(b); err != nil {
			return fmt.Errorf("deliver block %d: %w", num, err)
		}
	}
	// The block has left: whatever arrived behind it may go now.
	o.signal()
	return nil
}

// markAppliedLocked records that batch seq became a block and reports
// whether this is the first time. The high-water mark absorbs every
// sequence applied in order, so the set only holds the ones applied ahead
// of a gap: batches cut while an earlier one sat parked across a failover.
func (o *Orderer) markAppliedLocked(seq uint64) bool {
	if seq <= o.appliedTo {
		return false
	}
	if _, dup := o.applied[seq]; dup {
		return false
	}
	o.applied[seq] = struct{}{}
	for {
		if _, ok := o.applied[o.appliedTo+1]; !ok {
			return true
		}
		delete(o.applied, o.appliedTo+1)
		o.appliedTo++
	}
}

// Stats reports blocks and transactions ordered by this node.
func (o *Orderer) Stats() (blocks, txs int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.blocks, o.txs
}

// Cuts reports how many batches this node cut under each rule; a batch
// raft refused counts once, however often it is re-proposed.
// Timeout cuts are a symptom: raft had no leader, or an earlier block was
// stuck on its way out.
func (o *Orderer) Cuts() (size, idle, timeout int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cuts[CutSize], o.cuts[CutIdle], o.cuts[CutTimeout]
}

// Height returns the number of blocks created.
func (o *Orderer) Height() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.height
}

// Stop shuts the orderer down (the raft node is stopped separately) and
// reports the fatal error that killed a loop early, if any.
func (o *Orderer) Stop() error {
	select {
	case <-o.stop:
		return o.Err()
	default:
	}
	close(o.stop)
	<-o.done
	return o.Err()
}

// marshalBatch encodes envelopes as repeated length-delimited fields
// (field 1) plus the batch sequence number (field 2, varint) used for
// exactly-once deduplication across leader failover. The batch is sized
// first and every envelope is written in place: one exact-size allocation.
func marshalBatch(envs []block.Envelope, seq uint64) []byte {
	n := wire.SizeUintField(2, seq)
	for i := range envs {
		n += wire.SizeBytesField(1, block.SizeEnvelope(&envs[i]))
	}
	out := wire.AppendUint(make([]byte, 0, n), 2, seq)
	for i := range envs {
		e := &envs[i]
		out = wire.AppendTag(out, 1, wire.TypeBytes)
		out = wire.AppendVarint(out, uint64(block.SizeEnvelope(e)))
		out = block.AppendEnvelope(out, e)
	}
	return out
}

func unmarshalBatch(data []byte) ([]block.Envelope, uint64, error) {
	var envs []block.Envelope
	var seq uint64
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case 1:
			env, err := block.UnmarshalEnvelope(r.Bytes())
			if err != nil {
				return nil, 0, err
			}
			envs = append(envs, *env)
		case 2:
			seq = r.Uint()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("orderer: batch decode: %w", err)
	}
	return envs, seq, nil
}
