// Package peer assembles the validator peers of the paper's experimental
// setup (Figure 8):
//
//   - Peer: the durable software validator (sw_validator) — the commit
//     engine (internal/pipeline), laid out as the paper's Fabric v1.4
//     baseline, over a state database and a disk ledger. Every software
//     peer is this one type; its engine configuration sets only the vscc
//     worker count, and its store decides whether the read-set prefetch
//     runs.
//
//   - BMacPeer: the hardware-accelerated peer — the BMac protocol receiver
//     and block processor "in hardware" (internal/bmacproto +
//     internal/core), with the host CPU only reading validation results
//     from the reg_map and committing blocks to the disk ledger. Hardware
//     validation of block n+1 overlaps with the CPU's ledger commit of
//     block n (paper §3.1).
//
// The software peer is durable: every validated block is appended to the
// disk ledger before its result is reported, reopening a peer directory
// replays the ledger (on top of the newest state checkpoint) so a
// restarted peer resumes at its previous height, and a checkpoint cadence
// can bound how much of the ledger a restart has to replay (durable.go).
// Peer.Follow is its receive loop over an at-least-once block source: it
// drops duplicates, sends the redelivered blocks of a quarantined ledger
// hole to Restore, and rewinds the source on a gap or a damaged block.
// The BMac peer's host loop has no such stream to repair: it pairs the
// receiver's assembled blocks with the processor's verdicts.
package peer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/core"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// CommitResult is reported by a peer for every committed block.
type CommitResult struct {
	BlockNum   uint64
	BlockValid bool
	Flags      []byte
	CommitHash []byte
	// HWStats is populated by BMac peers only.
	HWStats core.Stats
	// Breakdown is populated by software peers so callers can compare
	// per-stage timings.
	Breakdown validator.Breakdown
}

// Peer is a durable software validator peer: the commit engine over a
// state database, and the disk ledger it commits to (see Open).
type Peer struct {
	Engine *pipeline.Engine
	Ledger *ledger.Ledger

	dir  string
	opts DurableOptions
}

// CommitBlock validates and commits one received block (the gossip path
// hands blocks here in order, each decoded once from the frame it arrived
// in). b is not modified, so one decoded block may be committed to several
// peers at once; the buffer it was decoded from must not be reused (see
// pipeline.Engine.ValidateAndCommitBlock). When a checkpoint cadence is
// configured, the block's commit may be followed by a state checkpoint; a
// checkpoint failure is returned even though the block itself committed,
// because the peer's durability contract is broken.
func (p *Peer) CommitBlock(b *block.Block) (CommitResult, error) {
	res, err := p.Engine.ValidateAndCommitBlock(b)
	if err != nil {
		return CommitResult{}, err
	}
	if every := p.opts.CheckpointEvery; every > 0 && (res.BlockNum+1)%uint64(every) == 0 {
		if err := p.Checkpoint(); err != nil {
			return CommitResult{}, fmt.Errorf("peer: checkpoint after block %d: %w", res.BlockNum, err)
		}
	}
	return CommitResult{
		BlockNum:   res.BlockNum,
		BlockValid: res.BlockValid,
		Flags:      res.Flags,
		CommitHash: res.CommitHash,
		Breakdown:  res.Breakdown,
	}, nil
}

// Hooks are what a caller adds to Follow's receive loop; each may be nil.
type Hooks struct {
	// Rewind asks the source to redeliver from block seq on, after a gap or
	// a block that failed block-level verification (frames lost or damaged
	// after the sender's cursor advanced). Nil means the source drops
	// blocks by design (a slow DropBlocks pipe): from its first gap on, the
	// peer commits nothing more, since MVCC cannot validate against a state
	// missing the skipped writes.
	Rewind func(seq uint64) error
	// Committed runs after each block commits; recvAt is when Follow took
	// the block off the source.
	Committed func(b *block.Block, res CommitResult, recvAt time.Time) error
	// Skipped runs, with Rewind nil, for every block from the first gap on.
	Skipped func(b *block.Block)
}

// Follow commits the blocks src delivers, in order, until src closes. The
// source is at-least-once: a block below the height is a duplicate and is
// dropped, unless it falls in a quarantined ledger hole, where it is the
// archive refetch and goes to Ledger.Restore (which verifies it against
// the surviving chain). A gap or a block that fails verification goes to
// h.Rewind for redelivery, at most 8 times for one block: one that keeps
// failing is not wire damage. A failed commit, rewind or hook, or a
// redelivered block Restore rejects 32 times running, ends Follow with
// its error.
func (p *Peer) Follow(src <-chan *block.Block, h Hooks) error {
	next, skipping := p.Height(), false
	var badSeq uint64             // the last block that failed verification
	badRuns, restoreFails := 0, 0 // its failures; consecutive Restore rejections
	for b := range src {
		num := b.Header.Number
		if num < next {
			if !p.Ledger.NeedsRestore(num) {
				continue
			}
			if err := p.Ledger.Restore(b); err == nil {
				restoreFails = 0
			} else if restoreFails++; restoreFails > 32 {
				return fmt.Errorf("restore block %d: %w", num, err)
			}
			continue
		}
		if num > next && h.Rewind != nil {
			if err := h.Rewind(next); err != nil {
				return fmt.Errorf("rewind to %d: %w", next, err)
			}
			continue
		}
		skipping = skipping || num > next
		next = num + 1
		if skipping {
			if h.Skipped != nil {
				h.Skipped(b)
			}
			continue
		}
		recvAt := time.Now()
		res, err := p.CommitBlock(b)
		if err != nil {
			if num != badSeq {
				badSeq, badRuns = num, 0
			}
			if badRuns++; h.Rewind == nil || !errors.Is(err, validator.ErrBlockInvalid) || badRuns > 8 {
				return fmt.Errorf("commit block %d: %w", num, err)
			}
			next = num // nothing was committed
			if err := h.Rewind(next); err != nil {
				return fmt.Errorf("rewind to %d: %w", next, err)
			}
			continue
		}
		if h.Committed != nil {
			if err := h.Committed(b, res, recvAt); err != nil {
				return err
			}
		}
	}
	return nil
}

// Want is the block the peer needs next: its first quarantined ledger hole
// or, with none, its height. A source rewound there redelivers the hole
// first, which Follow hands to Restore.
func (p *Peer) Want() uint64 {
	h := p.Height()
	if mr := p.Ledger.MissingRanges(); len(mr) > 0 {
		return min(h, mr[0].First)
	}
	return h
}

// Close stops the engine and releases the ledger.
func (p *Peer) Close() error {
	p.Engine.Close()
	return p.Ledger.Close()
}

// BMacPeer is the hardware-accelerated validator peer.
type BMacPeer struct {
	Cache    *identity.Cache
	Bufs     *bmacproto.Buffers
	Receiver *bmacproto.Receiver
	Proc     *core.Processor
	Ledger   *ledger.Ledger

	results chan CommitResult
	errs    chan error
	done    chan struct{}
	closed  sync.Once
}

// NewBMacPeer creates a BMac peer: protocol receiver, block processor with
// the given architecture, hardware KVS, and a CPU-side ledger in dir.
func NewBMacPeer(cfg core.Config, dbCapacity int, dir string) (*BMacPeer, error) {
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("bmac peer ledger: %w", err)
	}
	cache := identity.NewCache()
	bufs := bmacproto.NewBuffers()
	p := &BMacPeer{
		Cache:    cache,
		Bufs:     bufs,
		Receiver: bmacproto.NewReceiver(cache, bufs),
		Proc:     core.New(cfg, bufs, statedb.NewHardwareKVS(dbCapacity)),
		Ledger:   led,
		results:  make(chan CommitResult, 16),
		errs:     make(chan error, 1),
		done:     make(chan struct{}),
	}
	p.Proc.Start()
	go p.commitLoop()
	return p, nil
}

// ProcessPacket feeds one network packet into the hardware receiver.
func (p *BMacPeer) ProcessPacket(data []byte) error {
	err := p.Receiver.ProcessPacket(data)
	if err != nil && !errors.Is(err, bmacproto.ErrNotBMac) {
		return err
	}
	return nil
}

// Results delivers one CommitResult per committed block, in order.
func (p *BMacPeer) Results() <-chan CommitResult { return p.results }

// Err reports a fatal commit-loop error, if any.
func (p *BMacPeer) Err() error {
	select {
	case err := <-p.errs:
		return err
	default:
		return nil
	}
}

// commitLoop is the CPU side of the BMac peer (left half of Figure 4b): it
// receives the reconstructed block from the protocol processor, reads the
// validation result from the hardware through GetBlockData, merges the
// flags into the block, and commits it to the disk ledger. While this loop
// is writing block n, the hardware pipeline is already validating n+1.
func (p *BMacPeer) commitLoop() {
	defer close(p.done)
	defer close(p.results)
	for ab := range p.Receiver.Blocks() {
		res, ok := p.Proc.GetBlockData()
		if !ok {
			return
		}
		if res.BlockNum != ab.Block.Header.Number {
			p.fail(fmt.Errorf("bmac peer: result for block %d but assembled block %d",
				res.BlockNum, ab.Block.Header.Number))
			return
		}
		blockValid := res.BlockValid && ab.DataHashOK
		flags := res.Flags
		if !ab.DataHashOK {
			flags = make([]byte, len(res.Flags))
			for i := range flags {
				flags[i] = byte(block.InvalidOther)
			}
		}
		ab.Block.Metadata.ValidationFlags = flags
		ch, err := p.Ledger.Commit(ab.Block)
		if err != nil {
			p.fail(fmt.Errorf("bmac peer commit block %d: %w", res.BlockNum, err))
			return
		}
		p.results <- CommitResult{
			BlockNum:   res.BlockNum,
			BlockValid: blockValid,
			Flags:      flags,
			CommitHash: ch,
			HWStats:    res.Stats,
		}
	}
}

func (p *BMacPeer) fail(err error) {
	select {
	case p.errs <- err:
	default:
	}
}

// Close shuts down the pipeline and waits for the commit loop to drain.
func (p *BMacPeer) Close() error {
	var err error
	p.closed.Do(func() {
		p.Bufs.Close()
		p.Proc.Wait()
		p.Receiver.Close()
		<-p.done
		err = p.Ledger.Close()
	})
	return err
}
