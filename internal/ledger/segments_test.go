package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/fsutil"
)

// Segment-store tests: rotation, the persistent index, the crash windows
// around sealing, quarantine + restore, truncation and pruning.

// chain commits n chained blocks into l (starting at its height) and
// returns them.
func (f *fixture) chain(t *testing.T, l *Ledger, n int) []*block.Block {
	t.Helper()
	var prev []byte
	start := l.Height()
	if start > 0 {
		b, err := l.Get(start - 1)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
	}
	var out []*block.Block
	for i := 0; i < n; i++ {
		b := f.block(t, start+uint64(i), prev)
		prev = block.HeaderHash(&b.Header)
		if _, err := l.Commit(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// openTiny opens dir with a 1-byte segment budget: every block seals its
// segment and rotation happens on each commit.
func openTiny(t *testing.T, dir string) *Ledger {
	t.Helper()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRotationReopenAndGet(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	blocks := f.chain(t, l, 6)
	st := l.Stats()
	if st.SealedSegments < 5 {
		t.Fatalf("sealed %d segments for 6 one-block commits, want >= 5", st.SealedSegments)
	}
	wantLast := l.LastCommitHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 6 {
		t.Fatalf("reopened height %d, want 6", l2.Height())
	}
	if l2.Stats().IndexRebuilds != 0 {
		t.Error("clean reopen rebuilt the index")
	}
	for _, want := range blocks {
		got, err := l2.Get(want.Header.Number)
		if err != nil {
			t.Fatalf("Get(%d): %v", want.Header.Number, err)
		}
		if !bytes.Equal(block.Marshal(got), block.Marshal(want)) {
			t.Fatalf("block %d read back differs", want.Header.Number)
		}
	}
	if !bytes.Equal(l2.LastCommitHash(), wantLast) {
		t.Error("commit hash chain lost across reopen")
	}
	// The chain continues across the reopen.
	f.chain(t, l2, 2)
	if l2.Height() != 8 {
		t.Fatalf("height %d after continuing, want 8", l2.Height())
	}
}

func TestMissingIndexRebuilds(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 5 {
		t.Fatalf("height %d after index loss, want 5", l2.Height())
	}
	if l2.Stats().IndexRebuilds != 1 {
		t.Errorf("IndexRebuilds = %d, want 1", l2.Stats().IndexRebuilds)
	}
	for i := uint64(0); i < 5; i++ {
		if _, err := l2.Get(i); err != nil {
			t.Fatalf("Get(%d) after rebuild: %v", i, err)
		}
	}
}

func TestCorruptIndexRebuilds(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, indexFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 4 || l2.Stats().IndexRebuilds != 1 {
		t.Fatalf("height %d rebuilds %d, want 4 and 1", l2.Height(), l2.Stats().IndexRebuilds)
	}
}

// TestCrashTornFooter simulates a crash mid-seal: the footer write of the
// final segment was torn. The footer bytes must be truncated away and the
// segment re-adopted as the active tail, losing no records.
func TestCrashTornFooter(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Last sealed segment: chop half its footer off, and remove the index
	// plus the later files so it becomes the tail the scan walks into.
	paths, err := SealedSegmentPaths(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("sealed paths: %v %v", paths, err)
	}
	last := paths[len(paths)-1]
	// Drop everything after `last` (the empty active file) and the index,
	// leaving a directory whose tail segment has a torn footer.
	ids, err := listSegmentIDs(fsutil.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	lastID := ids[len(ids)-1]
	if err := os.Remove(segPath(dir, lastID)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-footerSize/2); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 3 {
		t.Fatalf("height %d after torn footer, want 3", l2.Height())
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := l2.Get(i); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	f.chain(t, l2, 1)
}

// TestCrashSealedButUnindexed simulates a crash between sealing a segment
// and persisting the index: the footer is complete but the index predates
// it. The segment must be scan-adopted (with a warning), not lost.
func TestCrashSealedButUnindexed(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Roll the index back to "before the last seal" by deleting it — the
	// same recovery path: sealed files the index does not know.
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 2 {
		t.Fatalf("height %d, want 2", l2.Height())
	}
	if len(l2.Warnings()) == 0 {
		t.Error("silent recovery: expected at least one warning about the rebuild")
	}
	// The rebuilt index persists: the next open is clean.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Stats().IndexRebuilds != 0 {
		t.Error("rebuilt index was not persisted")
	}
}

// TestStaleIndexTempCleaned: a crash mid index or checkpoint write leaves
// fsutil.Replace temp files, and one mid restore a .restore file; open must
// sweep them all, and nothing else — not the checkpoint generation beside
// its temp.
func TestStaleIndexTempCleaned(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, name := range []string{"index.tmp-999", "checkpoint-000000000004.tmp-123", "blockfile_000007.restore"} {
		stale = append(stale, filepath.Join(dir, name))
		if err := os.WriteFile(stale[len(stale)-1], []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	kept := filepath.Join(dir, "checkpoint-000000000004")
	if err := os.WriteFile(kept, []byte("not a temp"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, p := range stale {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived open", filepath.Base(p))
		}
	}
	if _, err := os.Stat(kept); err != nil {
		t.Errorf("open swept %s: %v", filepath.Base(kept), err)
	}
}

// TestRuntimeQuarantineAndRestore corrupts a sealed segment under a LIVE
// ledger: the failing Get must quarantine the segment (ErrMissing, not a
// dead ledger), Commit must keep working, and Restore must backfill the
// range from redelivered archive blocks until Get works again — with the
// restored file surviving a cold reopen.
func TestRuntimeQuarantineAndRestore(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	blocks := f.chain(t, l, 5)

	// Clobber block 1's record bytes on disk (its segment is sealed).
	paths, err := SealedSegmentPaths(dir)
	if err != nil || len(paths) < 2 {
		t.Fatalf("sealed paths: %v %v", paths, err)
	}
	fh, err := os.OpenFile(paths[1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(bytes.Repeat([]byte{0xFF}, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Get(1); !errors.Is(err, ErrMissing) {
		t.Fatalf("Get(1) on corrupt segment: %v, want ErrMissing", err)
	}
	if got := l.Stats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	mr := l.MissingRanges()
	if len(mr) != 1 || mr[0].First != 1 || mr[0].Count != 1 {
		t.Fatalf("missing ranges %v, want [{1 1}]", mr)
	}
	if !l.NeedsRestore(1) || l.NeedsRestore(2) {
		t.Fatal("NeedsRestore bounds wrong")
	}
	// The live half of the store is unaffected.
	if _, err := l.Get(2); err != nil {
		t.Fatalf("Get(2) after quarantining segment 1: %v", err)
	}
	f.chain(t, l, 1) // Commit keeps working

	// A tampered redelivery is rejected; the genuine block restores.
	evil := f.block(t, 1, block.HeaderHash(&blocks[0].Header))
	if err := l.Restore(evil); !errors.Is(err, ErrRestore) {
		t.Fatalf("tampered restore: %v, want ErrRestore", err)
	}
	if err := l.Restore(blocks[1]); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(l.MissingRanges()) != 0 {
		t.Fatalf("missing ranges %v after restore", l.MissingRanges())
	}
	got, err := l.Get(1)
	if err != nil {
		t.Fatalf("Get(1) after restore: %v", err)
	}
	if !bytes.Equal(block.Marshal(got), block.Marshal(blocks[1])) {
		t.Fatal("restored block differs")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(l2.MissingRanges()) != 0 {
		t.Fatalf("reopen sees missing ranges %v", l2.MissingRanges())
	}
	if _, err := l2.Get(1); err != nil {
		t.Fatalf("Get(1) after reopen: %v", err)
	}
}

// TestOpenQuarantinesTailAndRollsBack: bit-rot in the NEWEST sealed
// segment is found by the open-time sweep; with no live successor to pin
// the chain the height must roll back to the hole, and recommitting the
// lost blocks heals the ledger.
func TestOpenQuarantinesTailAndRollsBack(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	blocks := f.chain(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := SealedSegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := paths[len(paths)-1]
	fh, err := os.OpenFile(last, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt([]byte{0xFF}, 9); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open after tail corruption must quarantine, not fail: %v", err)
	}
	defer l2.Close()
	if l2.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", l2.Stats().Quarantined)
	}
	if l2.Height() != 3 {
		t.Fatalf("height %d after tail rollback, want 3", l2.Height())
	}
	if len(l2.MissingRanges()) != 0 {
		t.Fatalf("trailing hole %v should have rolled back, not await restore", l2.MissingRanges())
	}
	// Recommit the lost block: the chain anchor survived.
	if _, err := l2.Commit(blocks[3]); err != nil {
		t.Fatalf("recommit after rollback: %v", err)
	}
	if l2.Height() != 4 {
		t.Fatalf("height %d after recommit, want 4", l2.Height())
	}
}

func TestTruncateFrom(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	blocks := f.chain(t, l, 6)
	defer l.Close()
	if err := l.TruncateFrom(3); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 3 {
		t.Fatalf("height %d after truncate, want 3", l.Height())
	}
	if _, err := l.Get(4); err == nil {
		t.Fatal("truncated block still readable")
	}
	// Recommit 3..5: same chain, fresh files.
	for _, b := range blocks[3:] {
		if _, err := l.Commit(b); err != nil {
			t.Fatalf("recommit %d: %v", b.Header.Number, err)
		}
	}
	for i := uint64(0); i < 6; i++ {
		if _, err := l.Get(i); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestPruneDropsCoveredSegments(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l := openTiny(t, dir)
	f.chain(t, l, 6)
	removed, err := l.Prune(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || l.Base() != 4 {
		t.Fatalf("pruned %d segments, base %d; want removal and base 4", removed, l.Base())
	}
	if _, err := l.Get(2); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get below the floor: %v, want ErrPruned", err)
	}
	if _, err := l.Get(4); err != nil {
		t.Fatalf("Get(4) above the floor: %v", err)
	}
	// The dropped files are really gone.
	left, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 3 {
		t.Fatalf("%d segment files survive a prune to 4: %v", len(left), left)
	}
	wantLast := l.LastCommitHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != 4 || l2.Height() != 6 {
		t.Fatalf("reopened base %d height %d, want 4 and 6", l2.Base(), l2.Height())
	}
	if !bytes.Equal(l2.LastCommitHash(), wantLast) {
		t.Fatal("commit hash chain lost across prune + reopen")
	}
	// The commit-hash chain continues even though its history is pruned
	// away (the index carries the base anchor hashes).
	f.chain(t, l2, 1)
	if _, err := l2.Get(6); err != nil {
		t.Fatal(err)
	}
	// Repeat prune with nothing newly covered: a no-op, not an error.
	if n, err := l2.Prune(4); err != nil || n != 0 {
		t.Fatalf("idempotent prune: %d, %v", n, err)
	}
}

func TestWarningsRingBounded(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const extra = 6
	for i := 0; i < maxWarnings+extra; i++ {
		l.Warnf("synthetic warning %d", i)
	}
	w := l.Warnings()
	if len(w) != maxWarnings {
		t.Fatalf("ring holds %d warnings, want %d", len(w), maxWarnings)
	}
	if l.WarningsDropped() != extra {
		t.Fatalf("dropped %d, want %d", l.WarningsDropped(), extra)
	}
	// The survivors are the newest.
	if w[0] != fmt.Sprintf("synthetic warning %d", extra) || w[len(w)-1] != fmt.Sprintf("synthetic warning %d", maxWarnings+extra-1) {
		t.Fatalf("ring holds %q .. %q, want the newest", w[0], w[len(w)-1])
	}
}

func TestConcurrentGetDuringCommit(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.chain(t, l, 8)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				num := uint64((g*7 + i) % 8)
				b, err := l.Get(num)
				if err != nil {
					errs <- fmt.Errorf("Get(%d): %w", num, err)
					return
				}
				if b.Header.Number != num {
					errs <- fmt.Errorf("Get(%d) returned block %d", num, b.Header.Number)
					return
				}
			}
		}(g)
	}
	f.chain(t, l, 32) // rotations happen while readers hammer old segments
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if l.Height() != 40 {
		t.Fatalf("height %d, want 40", l.Height())
	}
}

// TestSealedChecksumsAfterHandOff: with each record's checksum computed
// beside Commit, every footer still covers exactly the bytes on disk —
// across seals, a TruncateFrom at a segment boundary, a Close right after a
// Commit and a reopen that rehashes the active segment — and Close leaves
// no checksum goroutine behind.
func TestSealedChecksumsAfterHandOff(t *testing.T) {
	for _, syncEach := range []bool{false, true} {
		t.Run(fmt.Sprintf("SyncEachBlock=%v", syncEach), func(t *testing.T) {
			fx := newFixture(t)
			dir := t.TempDir()
			opts := Options{SegmentBytes: 12 << 10, SyncEachBlock: syncEach}
			sizes := []int{0, 3000, 9000, 200, 20000, 64}
			var blocks []*block.Block
			commit := func(l *Ledger, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					num := l.Height()
					var prev []byte
					if num > 0 {
						prev = block.HeaderHash(&blocks[num-1].Header)
					}
					env, err := block.NewEndorsedEnvelope(block.TxSpec{
						Creator: fx.client, Chaincode: "cc", Channel: "ch",
						RWSet: block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: make([]byte, sizes[num%uint64(len(sizes))])}}},
					})
					if err != nil {
						t.Fatal(err)
					}
					b, err := block.NewBlock(num, prev, []block.Envelope{*env}, fx.orderer)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := l.Commit(b); err != nil {
						t.Fatalf("commit %d: %v", num, err)
					}
					blocks = append(blocks[:num], b)
				}
			}
			settled := func(want int) {
				t.Helper()
				for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
					if time.Now().After(end) {
						t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			footersMatch := func(minSealed int) {
				t.Helper()
				paths, err := SealedSegmentPaths(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(paths) < minSealed {
					t.Fatalf("%d sealed segments on disk, want >= %d", len(paths), minSealed)
				}
				for _, p := range paths {
					raw, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					fi, err := parseFooter(raw[len(raw)-footerSize:], int64(len(raw)))
					if err != nil {
						t.Fatal(err)
					}
					if sha256.Sum256(raw[:fi.dataLen]) != fi.sum {
						t.Fatalf("%s: footer sum does not match its record region", filepath.Base(p))
					}
				}
			}

			before := runtime.NumGoroutine()
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			commit(l, 18)
			if s := l.Stats().Sealed; s < 3 {
				t.Fatalf("%d seals, want >= 3", s)
			}
			l.mu.Lock()
			boundary := l.segs[len(l.segs)-2].first
			l.mu.Unlock()
			if err := l.TruncateFrom(boundary); err != nil {
				t.Fatal(err)
			}
			commit(l, 12)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			settled(before)
			footersMatch(3)

			l2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if l2.Height() != uint64(len(blocks)) {
				t.Fatalf("reopened height %d, want %d", l2.Height(), len(blocks))
			}
			l2.mu.Lock()
			for _, seg := range l2.segs {
				if seg.sealed {
					if err := seg.verifyChecksum(); err != nil {
						t.Error(err)
					}
				}
			}
			l2.mu.Unlock()
			// The reopened active segment's checksum is rehashed from disk
			// and carries on through the next seal.
			sealed := l2.Stats().Sealed
			for l2.Stats().Sealed == sealed {
				commit(l2, 1)
			}
			for _, want := range blocks {
				got, err := l2.Get(want.Header.Number)
				if err != nil {
					t.Fatalf("Get(%d) after reopen: %v", want.Header.Number, err)
				}
				if !bytes.Equal(block.HeaderHash(&got.Header), block.HeaderHash(&want.Header)) {
					t.Fatalf("block %d differs after reopen", want.Header.Number)
				}
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			settled(before)
			footersMatch(4)
		})
	}
}
