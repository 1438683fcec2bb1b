// Durability: the ledger-backed crash-recovery path of the software peer.
//
// A peer's state database is in-memory; what survives a crash is the
// segmented ledger (internal/ledger) and the retained state checkpoint
// generations (internal/statedb's checkpoint-<height> files). Recovery
// composes the two as snapshot fast-sync: restore the newest usable
// checkpoint, then replay only the ledger tail past it — a peer that was
// days behind pays for the tail, not the whole chain. A corrupt or ledger-ahead generation falls
// back to an older one (costing extra replay, never the peer); a
// quarantined ledger range above the chosen checkpoint rolls the ledger
// back to the gap's edge so delivery recommits across it. A peer restarted
// this way resumes at its ledger height with a state database
// bit-identical to one that never crashed.

package peer

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"bmac/internal/block"
	"bmac/internal/fsutil"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// DurableOptions configure ledger-backed durability for a software peer.
type DurableOptions struct {
	// CheckpointEvery writes a state checkpoint after every N committed
	// blocks (through CommitBlock); 0 disables periodic checkpoints, so
	// recovery replays the whole ledger (plus whatever checkpoint was
	// written explicitly, e.g. the genesis checkpoint).
	CheckpointEvery int
	// KeepCheckpoints is how many checkpoint generations to retain (see
	// statedb.DefaultKeepCheckpoints for <= 0). More generations mean more
	// corruption fallback at more disk.
	KeepCheckpoints int
	// SegmentBytes is the ledger's segment rotation budget (see
	// ledger.Options.SegmentBytes); 0 means the ledger default.
	SegmentBytes int64
	// Prune, when set, prunes ledger segments wholly covered by every
	// retained checkpoint generation after each successful checkpoint,
	// bounding disk growth. Pruned blocks are gone from this peer's
	// archive (delivery catch-up below the prune floor reports
	// ledger.ErrPruned).
	Prune bool
	// SyncEachBlock fsyncs the ledger after every block commit.
	SyncEachBlock bool
	// FS is the file system the ledger and the checkpoints go through
	// (the chaos slow-disk scenario wraps it); nil means fsutil.OS.
	FS fsutil.FS
}

// Open opens (or reopens) a software peer in dir — the engine that cfg
// describes, over the given state-database backend (plain or hybrid
// hardware/host), which must be empty. An existing ledger is replayed on
// top of the newest usable checkpoint generation (snapshot fast-sync), so
// a restarted peer resumes from its last committed block; Height reports
// where that is.
func Open(cfg pipeline.Config, kvs statedb.KVS, dir string, opts DurableOptions) (*Peer, error) {
	if opts.FS == nil {
		opts.FS = fsutil.OS{}
	}
	led, err := ledger.Open(dir, ledger.Options{
		SegmentBytes:  opts.SegmentBytes,
		SyncEachBlock: opts.SyncEachBlock,
		FS:            opts.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("peer ledger: %w", err)
	}
	if err := recoverState(opts.FS, kvs, led, dir); err != nil {
		led.Close() // bmaclint:allow errdiscard (error path: ledger close error would mask the recovery failure)
		return nil, err
	}
	return &Peer{Engine: pipeline.New(cfg, kvs, led), Ledger: led, dir: dir, opts: opts}, nil
}

// NewDurableSWPeer forwards to Open — pinned by benchmark/wiring.go; remove
// with the next benchmark PR.
func NewDurableSWPeer(cfg pipeline.Config, kvs statedb.KVS, dir string, opts DurableOptions) (*Peer, error) {
	return Open(cfg, kvs, dir, opts)
}

// NewDurableParallelPeer forwards to Open — pinned by benchmark/wiring.go;
// remove with the next benchmark PR.
func NewDurableParallelPeer(cfg pipeline.Config, kvs statedb.KVS, dir string, opts DurableOptions) (*Peer, error) {
	return Open(cfg, kvs, dir, opts)
}

// recoverState rebuilds a peer's state database from dir through fsys:
// the newest usable checkpoint generation seeds kvs (which must be empty)
// with the state as of its recorded height, and the ledger blocks past
// that height are replayed by applying the write sets their recorded
// validation flags admitted.
//
// A checkpoint that fails to load falls back to an older generation. When
// every candidate is unusable *because it is ahead of the ledger*, that is
// an error rather than a silent full replay: the ledger alone cannot
// reproduce state that predates block 0 (bootstrap genesis data lives only
// in checkpoints). The checkpoints share the ledger's directory, so
// ledger.Open has already swept the temp files of an interrupted write.
func recoverState(fsys fsutil.FS, kvs statedb.KVS, led *ledger.Ledger, dir string) error {
	start := uint64(0)
	restored := false
	var aheadErr error
	for _, ref := range statedb.Checkpoints(fsys, dir) {
		snap, h, err := statedb.LoadCheckpoint(fsys, filepath.Join(dir, ref.File))
		switch {
		case err == nil:
		case errors.Is(err, fs.ErrNotExist):
			continue
		default:
			led.Warnf("peer: checkpoint %s unusable (%v); falling back", ref.File, err)
			continue
		}
		if h > led.Height() {
			// The checkpoint outran the (possibly truncated) ledger; an
			// older generation can still anchor replay.
			aheadErr = fmt.Errorf("peer: checkpoint at height %d is ahead of ledger height %d in %s",
				h, led.Height(), dir)
			led.Warnf("%v; falling back", aheadErr)
			continue
		}
		if h < led.Base() {
			// Replay from h would need pruned blocks.
			led.Warnf("peer: checkpoint %s at height %d is below the prune floor %d; falling back",
				ref.File, h, led.Base())
			continue
		}
		statedb.RestoreSnapshot(kvs, snap)
		start = h
		restored = true
		break
	}
	if !restored && aheadErr != nil {
		return aheadErr
	}

	// A quarantined range at or above the chosen checkpoint cannot be
	// crossed by replay — roll the ledger back to the gap's edge; those
	// blocks recommit through delivery. Ranges below the checkpoint stay:
	// they are archive-only and restore via delivery catch-up (Restore).
	for _, r := range led.MissingRanges() {
		if r.First >= start {
			if err := led.TruncateFrom(r.First); err != nil {
				return fmt.Errorf("peer: truncate at quarantined range [%d,%d): %w", r.First, r.First+r.Count, err)
			}
			break
		}
	}

	for n := start; n < led.Height(); n++ {
		b, err := led.Get(n)
		if err != nil {
			return fmt.Errorf("peer: recovery replay block %d: %w", n, err)
		}
		if err := replayBlock(kvs, b); err != nil {
			return err
		}
	}
	return nil
}

// replayBlock re-derives the state effects of one committed block: the
// write sets of transactions whose recorded validation flag is Valid,
// decoded through the validator's own transaction parser (the same code
// path the live commit used), applied at the same versions.
func replayBlock(kvs statedb.KVS, b *block.Block) error {
	flags := b.Metadata.ValidationFlags
	for i := range b.Envelopes {
		if i >= len(flags) || block.ValidationCode(flags[i]) != block.Valid {
			continue
		}
		pt := validator.ParseTx(b.Envelopes[i].PayloadBytes)
		if pt.Err != nil {
			return fmt.Errorf("peer: replay block %d tx %d: %w", b.Header.Number, i, pt.Err)
		}
		kvs.WriteBatch(pt.RW.Writes, block.Version{BlockNum: b.Header.Number, TxNum: uint64(i)})
	}
	return nil
}

// Height reports the peer's ledger height — the next block number it
// expects to commit (equal to the recovered height right after a restart).
func (p *Peer) Height() uint64 { return p.Ledger.Height() }

// Checkpoint writes a state checkpoint generation file at the current
// ledger height (atomic rename; previous generations survive a crash
// mid-write), removes generations beyond KeepCheckpoints and, when
// pruning is on, prunes ledger segments covered by *every* retained
// generation — pruning to the newest would strand the older generations'
// replay ranges. The ledger is fsynced first: state is never durable
// ahead of the log it derives from, or a power loss would leave a
// checkpoint above the surviving ledger. Call it after bootstrap to
// capture genesis state that no ledger block carries.
func (p *Peer) Checkpoint() error {
	if err := p.Ledger.Sync(); err != nil {
		return fmt.Errorf("peer: sync ledger before checkpoint: %w", err)
	}
	refs, err := statedb.WriteManagedCheckpoint(p.opts.FS, p.dir, p.Engine.Store(), p.Ledger.Height(),
		p.opts.KeepCheckpoints)
	if err != nil {
		return err
	}
	if !p.opts.Prune || len(refs) == 0 {
		return nil
	}
	covered := refs[len(refs)-1].Height // oldest retained generation
	if _, err := p.Ledger.Prune(covered); err != nil {
		return fmt.Errorf("peer: prune to %d after checkpoint: %w", covered, err)
	}
	return nil
}
