package cluster

import (
	"path/filepath"
	"testing"

	"bmac/internal/config"
	"bmac/internal/ledger"
)

// Scenario tests for the segmented ledger under cluster load: rotation
// under churn, checkpoint-covered pruning, and the quarantine-refetch
// path where a bit-rotted sealed segment is restored through delivery.

// TestChurnAcrossSegmentBoundariesWithPrune runs the churn scenario with
// a segment budget tiny enough that every peer rotates every block or
// two, and pruning on: the kill, the restart's fast-sync recovery and
// the ledger catch-up all cross segment boundaries, checkpoint-covered
// segments are dropped, and the fast peers still end bit-identical.
func TestChurnAcrossSegmentBoundariesWithPrune(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 3
	cfg.Durability.SegmentBytes = 4096
	cfg.Durability.Prune = true
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      80,
		Rate:     900,
		Clients:  2,
		Scenario: script(t, "churn", 2),
		Seed:     47,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, res)
	_, churned := event(t, res, Restart)
	if churned.Restarts != 1 {
		t.Fatalf("churned peer report %+v", churned)
	}
	for _, p := range res.Peers {
		if p.Ledger.Sealed == 0 {
			t.Errorf("%s sealed no segments under a 4KiB budget", p.Name)
		}
		if p.Ledger.Pruned == 0 || p.Ledger.Base == 0 {
			t.Errorf("%s pruned nothing (base %d, pruned %d) despite checkpoints covering it",
				p.Name, p.Ledger.Base, p.Ledger.Pruned)
		}
		if p.Ledger.MissingBlocks != 0 {
			t.Errorf("%s finished with %d missing blocks", p.Name, p.Ledger.MissingBlocks)
		}
	}
	// The restart crossed pruned-away history: the peer must have resumed
	// from a checkpoint at or above its prune floor, then caught up via
	// the orderer's (unpruned) archive.
	if churned.Delivery.CaughtUp == 0 {
		t.Errorf("churned peer caught up without the ledger source: %+v", churned.Delivery)
	}
}

// TestChurnCorruptQuarantineRefetch is the quarantine acceptance gate:
// bit-rot strikes the churned peer's oldest sealed segment while it is
// down. The restart's checksum sweep must quarantine the file (not kill
// the peer), the lost range must be re-fetched through the delivery
// service's archive path and restored into a fresh sealed segment, and
// the cluster must end bit-identical — with the victim's whole chain
// readable from disk afterwards.
func TestChurnCorruptQuarantineRefetch(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 3
	cfg.Durability.SegmentBytes = 4096
	cfg.Delivery.Window = 4
	dir := t.TempDir()
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      80,
		Rate:     900,
		Clients:  2,
		Scenario: script(t, "churn-corrupt", 2), // the kill waits for 4 commits, so a segment has sealed
		Seed:     53,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, res)
	rot, victim := event(t, res, CorruptSegment)
	if rot.File == "" {
		t.Fatalf("event %+v: nothing was corrupted", rot)
	}
	if victim.Ledger.Quarantined == 0 {
		t.Fatal("corrupted segment was never quarantined")
	}
	if victim.Ledger.RestoredBlocks == 0 {
		t.Fatal("quarantined range was never restored through delivery")
	}
	if victim.Ledger.MissingBlocks != 0 {
		t.Fatalf("victim finished with %d blocks still missing", victim.Ledger.MissingBlocks)
	}

	// The restored archive is real: reopen the victim's directory cold and
	// read every block back, chain-linked.
	led, err := ledger.Open(filepath.Join(dir, victim.Name), ledger.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if len(led.MissingRanges()) != 0 {
		t.Fatalf("reopened victim still has missing ranges: %v", led.MissingRanges())
	}
	if led.Height() != victim.Height {
		t.Fatalf("reopened victim height %d, want %d", led.Height(), victim.Height)
	}
	for num := led.Base(); num < led.Height(); num++ {
		if _, err := led.Get(num); err != nil {
			t.Fatalf("block %d unreadable after restore: %v", num, err)
		}
	}
}

// TestSlowDiskAcrossSegmentBoundaries layers the slow, write-refusing
// disk under a tiny segment budget, so the injected faults land on seal
// (footer) and index writes as well as block appends, and the victim still
// converges.
func TestSlowDiskAcrossSegmentBoundaries(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 3
	cfg.Durability.SegmentBytes = 4096
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      40,
		Clients:  2,
		Scenario: script(t, "slowdisk", 2),
		Seed:     59,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, res)
	disk, victim := event(t, res, SlowDisk)
	if disk.DiskFaults == 0 {
		t.Fatalf("event %+v: no faults injected", disk)
	}
	if victim.Ledger.Sealed == 0 {
		t.Fatalf("victim sealed no segments under the fault (report %+v)", victim)
	}
}
