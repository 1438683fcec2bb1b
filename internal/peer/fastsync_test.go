package peer

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bmac/internal/fsutil"
	"bmac/internal/statedb"
)

// Fast-sync recovery tests: generation fallback, recovery from the oldest
// generation, and pruned-ledger restarts.

// TestRecoveryFallsBackOnCorruptNewestCheckpoint: clobbering the newest
// checkpoint generation costs extra replay (the older generation anchors
// recovery), never the peer — and the recovered state is bit-identical. The
// fallback is noted in the ledger's Warnings ring, and nothing is logged.
func TestRecoveryFallsBackOnCorruptNewestCheckpoint(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 6)
	cfg := fabric14(t, f.net, 2, f.pols)

	dir := t.TempDir()
	p, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	want := statedb.SnapshotHash(p.Engine.Store().Snapshot())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	refs := statedb.Checkpoints(fsutil.OS{}, dir)
	if len(refs) < 2 {
		t.Fatalf("need >= 2 generations to test fallback, have %+v", refs)
	}
	newest := filepath.Join(dir, refs[0].File)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	p2, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{CheckpointEvery: 2})
	log.SetOutput(os.Stderr)
	if err != nil {
		t.Fatalf("recovery with a corrupt newest generation: %v", err)
	}
	defer p2.Close()
	if logged.Len() != 0 {
		t.Errorf("recovery logged %q", logged.String())
	}
	noted := false
	for _, w := range p2.Ledger.Warnings() {
		noted = noted || strings.Contains(w, refs[0].File+" unusable")
	}
	if !noted {
		t.Errorf("no fallback note for %s in %q", refs[0].File, p2.Ledger.Warnings())
	}
	if p2.Height() != 6 {
		t.Fatalf("recovered height %d, want 6", p2.Height())
	}
	if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery diverges from live state")
	}
}

// TestOldestGenerationRecoversIdentically: with every newer generation
// file removed, recovery from the oldest checkpoint (maximal tail replay,
// the fastsync experiment's baseline) lands on the same height and state as
// fast-sync — it only pays more replay.
func TestOldestGenerationRecoversIdentically(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 6)
	cfg := fabric14(t, f.net, 2, f.pols)

	dir := t.TempDir()
	p, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	want := statedb.SnapshotHash(p.Engine.Store().Snapshot())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	refs := statedb.Checkpoints(fsutil.OS{}, dir)
	if len(refs) < 2 {
		t.Fatalf("need >= 2 generations, have %+v", refs)
	}
	for _, r := range refs[:len(refs)-1] {
		if err := os.Remove(filepath.Join(dir, r.File)); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Height() != 6 {
		t.Fatalf("recovered height %d, want 6", p2.Height())
	}
	if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("recovery from the oldest generation diverges from fast-sync state")
	}
}

// TestPruneBoundsLedgerAndSurvivesRestart: with pruning on and a tiny
// segment budget, checkpoint-covered segments are dropped (the prune floor
// advances), the restart fast-syncs from a retained generation above the
// floor, and the chain keeps extending.
func TestPruneBoundsLedgerAndSurvivesRestart(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 10)
	cfg := fabric14(t, f.net, 2, f.pols)
	opts := DurableOptions{CheckpointEvery: 2, SegmentBytes: 1, Prune: true}

	dir := t.TempDir()
	p, err := Open(cfg, statedb.NewStore(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:8] {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if p.Ledger.Base() == 0 {
		t.Fatal("prune floor never advanced despite covering checkpoints")
	}
	if p.Ledger.Stats().Pruned == 0 {
		t.Fatal("no segments pruned")
	}
	want := statedb.SnapshotHash(p.Engine.Store().Snapshot())
	base := p.Ledger.Base()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Far fewer segment files than blocks committed: disk is bounded.
	files, err := filepath.Glob(filepath.Join(dir, "blockfile_*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) >= 8 {
		t.Fatalf("%d segment files survive pruning for 8 one-block segments", len(files))
	}

	p2, err := Open(cfg, statedb.NewStore(), dir, opts)
	if err != nil {
		t.Fatalf("restart of a pruned peer: %v", err)
	}
	defer p2.Close()
	if p2.Height() != 8 || p2.Ledger.Base() != base {
		t.Fatalf("recovered height %d base %d, want 8 and %d", p2.Height(), p2.Ledger.Base(), base)
	}
	if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("pruned restart diverges from live state")
	}
	for _, b := range blocks[8:] {
		if _, err := p2.CommitBlock(b); err != nil {
			t.Fatalf("commit after pruned restart: %v", err)
		}
	}
}
