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
package orderer

import (
	"errors"
	"fmt"
	"sort"
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
	raftNode *raft.Node // guarded by mu; swapped by Rebind after a leader kill
	pending  []block.Envelope
	oldest   time.Time // guarded by mu; when pending[0] arrived, or was requeued by a refused cut
	refused  bool      // guarded by mu; raft refused the last cut (no leader): only the timeout retries
	delivery []DeliverFunc
	height   uint64
	prevHash []byte
	blocks   int
	txs      int
	cuts     [CutReasons]int // guarded by mu; batches handed to raft, by reason
	fatalErr error

	// Exactly-once accounting across leader failover: every cut batch is
	// stamped with a sequence number; inflight holds cut-but-unapplied
	// batches (re-proposed by Rebind), and the applied record says which
	// batch sequences already became blocks (a new leader's apply channel
	// replays the whole log, and a re-proposed batch may commit twice).
	// Sequences apply almost in order, so the record is a high-water mark
	// plus the few sequences applied ahead of it.
	batchSeq  uint64              // guarded by mu; last assigned batch sequence
	inflight  map[uint64][]byte   // guarded by mu; batch seq -> marshaled batch
	appliedTo uint64              // guarded by mu; every batch seq <= appliedTo has been applied
	applied   map[uint64]struct{} // guarded by mu; batch seqs > appliedTo applied out of order

	wake   chan struct{} // the cut rules may have changed: pending went non-empty, a block left
	rebind chan struct{} // the raft node was swapped: re-read it
	stop   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup
}

// New creates an orderer bound to a raft node and starts its batching and
// delivery loops. The raft node must be started by the caller (it may be a
// single-node "solo-like" cluster, as in the paper's experiments).
func New(cfg Config, id *identity.Identity, raftNode *raft.Node) *Orderer {
	o := &Orderer{
		cfg:      cfg.withDefaults(),
		id:       id,
		raftNode: raftNode,
		inflight: make(map[uint64][]byte),
		applied:  make(map[uint64]struct{}),
		wake:     make(chan struct{}, 1),
		rebind:   make(chan struct{}, 1),
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
		if err := o.cut(CutSize); err != nil && !transient(err) {
			return err
		}
	case n == 1:
		o.signal()
	}
	return nil
}

// transient reports a cut failure that is an interval, not a fault: a
// leaderless raft cluster (election in progress after a leader kill, or a
// follower's orderer) and a node stopping under the orderer. The batch
// stays queued or parked and the timeout cut retries it.
func transient(err error) bool {
	return errors.Is(err, raft.ErrNotLeader) || errors.Is(err, raft.ErrStopped)
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
// silently.
func (o *Orderer) cut(reason CutReason) error {
	o.cutMu.Lock()
	defer o.cutMu.Unlock()
	o.mu.Lock()
	// A size cut re-checks its rule: between Submit seeing the batch full
	// and getting here, the cut loop may have taken it and left only what
	// arrived since.
	if len(o.pending) == 0 || (reason == CutSize && len(o.pending) < o.cfg.BatchSize) {
		o.mu.Unlock()
		return nil
	}
	batch := o.pending
	o.pending = nil
	o.batchSeq++
	seq := o.batchSeq
	node := o.raftNode
	o.mu.Unlock()

	data := marshalBatch(batch, seq)
	o.mu.Lock()
	o.inflight[seq] = data
	o.mu.Unlock()
	if err := node.Propose(data); err != nil {
		if errors.Is(err, raft.ErrNotLeader) {
			// A follower rejects the proposal before touching its log,
			// so the batch definitely did not land: requeue the
			// envelopes, hand the sequence number back (no gap for the
			// applied record) and let a later cut re-batch them. Their
			// wait starts over and the idle rule stands down until raft
			// takes a batch again — with nothing in flight it would
			// otherwise re-propose at once, in a spin, for the whole
			// election.
			o.mu.Lock()
			delete(o.inflight, seq)
			o.batchSeq--
			o.pending = append(batch, o.pending...)
			o.oldest = time.Now()
			o.refused = true
			o.mu.Unlock()
			o.signal()
			return fmt.Errorf("order batch: %w", err)
		}
		// ErrStopped is ambiguous: the node may have appended and
		// replicated the entry before the stop was observed (Propose's
		// response select races the stop channel). Re-batching these
		// envelopes under a fresh sequence could then commit them
		// twice — the applied-seq dedup only catches same-seq
		// re-proposals. Keep the batch parked in inflight under its
		// original seq: Rebind re-proposes the identical bytes, and if
		// the orderer was rebound while this propose was failing, retry
		// on the new node here (a duplicate re-propose is harmless —
		// same seq, so createBlock applies it once).
		o.mu.Lock()
		cur := o.raftNode
		o.mu.Unlock()
		if cur == node || cur.Propose(data) != nil {
			return fmt.Errorf("order batch: %w", err)
		}
	}
	o.mu.Lock()
	o.refused = false
	o.cuts[reason]++
	o.mu.Unlock()
	return nil
}

// cutLoop closes partial batches. It sleeps until something changes what
// the rules say — the first envelope of a batch, a block leaving, a refused
// cut — and holds a timer only while a batch is waiting behind something.
func (o *Orderer) cutLoop() {
	defer o.wg.Done()
	timer := time.NewTimer(o.cfg.BatchTimeout)
	defer timer.Stop()
	for {
		timer.Stop() // armed below, only while a batch waits
		o.mu.Lock()
		waiting := len(o.pending) > 0
		left := time.Until(o.oldest.Add(o.cfg.BatchTimeout))
		idle := len(o.inflight) == 0 && !o.refused
		o.mu.Unlock()
		if waiting && (idle || left <= 0) {
			reason := CutIdle
			if left <= 0 {
				reason = CutTimeout
			}
			if err := o.cut(reason); err != nil && !transient(err) {
				o.fail(err)
				return
			}
			continue
		}
		var expired <-chan time.Time
		if waiting {
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

func (o *Orderer) applyLoop() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		node := o.raftNode
		o.mu.Unlock()
		select {
		case <-o.stop:
			return
		case <-o.rebind:
			// Rebind swapped the raft node: re-read it and drain the new
			// node's apply channel from here on.
			continue
		case entry := <-node.Apply():
			if err := o.createBlock(entry.Data); err != nil {
				// A delivery-hook or decode failure is fatal for this
				// node: record it so Err/Stop surface it instead of the
				// node dying silently.
				o.fail(err)
				return
			}
		}
	}
}

// Rebind switches the orderer to a new raft node — the failover step after
// its original node was killed — and re-proposes every cut-but-unapplied
// batch through it, in sequence order. Re-proposing a batch that the old
// leader did manage to replicate is safe: batch-sequence deduplication in
// createBlock commits each batch exactly once. Callers pass the cluster's
// newly elected leader; ErrNotLeader (election still settling) is returned
// so the caller can retry.
func (o *Orderer) Rebind(n *raft.Node) error {
	o.mu.Lock()
	o.raftNode = n
	seqs := make([]uint64, 0, len(o.inflight))
	for seq := range o.inflight {
		seqs = append(seqs, seq)
	}
	o.mu.Unlock()
	select {
	case o.rebind <- struct{}{}:
	default:
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		o.mu.Lock()
		data, ok := o.inflight[seq]
		o.mu.Unlock()
		if !ok {
			continue // applied while we were re-proposing
		}
		if err := n.Propose(data); err != nil {
			return fmt.Errorf("orderer: re-propose batch %d: %w", seq, err)
		}
	}
	return nil
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
// block. A batch sequence seen before is skipped: after a failover the new
// leader's apply channel replays the whole log, and a re-proposed batch
// may legitimately commit twice — deduplication here is what makes the
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

// Cuts reports how many batches this node handed to raft under each rule.
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
