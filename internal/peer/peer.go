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
package peer

import (
	"errors"
	"fmt"
	"sync"

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
