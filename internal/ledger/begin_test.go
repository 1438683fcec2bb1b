package ledger

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bmac/internal/block"
	"bmac/internal/wire"
)

// Tests of the record written in two halves: Begin before the block's
// transactions are decided, Finish once their flags are set.

// flagged is block num of 1 + num%3 envelopes with prev as its previous
// hash, and the validation flags of a block half of whose transactions
// failed mvcc.
func (f *fixture) flagged(t testing.TB, num uint64, prev []byte) (*block.Block, []byte) {
	t.Helper()
	envs := make([]block.Envelope, 1+num%3)
	flags := make([]byte, len(envs))
	for i := range envs {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: f.client, Chaincode: "cc", Channel: "ch",
			RWSet: block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: []byte{byte(num), byte(i)}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = *env
		if i%2 == 1 {
			flags[i] = byte(block.MVCCReadConflict)
		}
	}
	b, err := block.NewBlock(num, prev, envs, f.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b, flags
}

// TestBeginFinishWritesWhatCommitWrites: over a chain that rotates its
// segment every few blocks, committing each block with Commit and with
// Begin then Finish leaves byte-identical segment files, footers and
// index, and the same commit hashes, with and without SyncEachBlock. The
// begun blocks arrive with stale metadata from elsewhere, as a block
// fetched from another peer's ledger does: Begin must size the record for
// the flags Finish sets, not for those.
func TestBeginFinishWritesWhatCommitWrites(t *testing.T) {
	f := newFixture(t)
	for _, syncEach := range []bool{false, true} {
		opts := Options{SegmentBytes: 6 << 10, SyncEachBlock: syncEach}
		dirC, dirBF := t.TempDir(), t.TempDir()
		lc, err := Open(dirC, opts)
		if err != nil {
			t.Fatal(err)
		}
		lbf, err := Open(dirBF, opts)
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		for num := uint64(0); num < 24; num++ {
			b, flags := f.flagged(t, num, prev)
			prev = block.HeaderHash(&b.Header)

			bc := *b
			bc.Metadata.ValidationFlags = flags
			chC, err := lc.Commit(&bc)
			if err != nil {
				t.Fatal(err)
			}

			bbf := *b
			bbf.Metadata.ValidationFlags = []byte{1, 2, 3, 4, 5}
			bbf.Metadata.CommitHash = []byte("stale")
			if err := lbf.Begin(&bbf); err != nil {
				t.Fatal(err)
			}
			bbf.Metadata.ValidationFlags = flags
			chBF, err := lbf.Finish(&bbf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chC, chBF) {
				t.Fatalf("sync %v, block %d: commit hash %x by Commit, %x by Begin and Finish", syncEach, num, chC, chBF)
			}
		}
		if s := lbf.Stats(); s.Sealed < 3 || s != lc.Stats() {
			t.Fatalf("sync %v: stats %+v by Begin and Finish, %+v by Commit; want them equal with 3 or more seals", syncEach, s, lc.Stats())
		}
		for _, l := range []*Ledger{lc, lbf} {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		filesC, filesBF := readDir(t, dirC), readDir(t, dirBF)
		if len(filesC) != len(filesBF) {
			t.Fatalf("sync %v: %d files by Commit, %d by Begin and Finish", syncEach, len(filesC), len(filesBF))
		}
		for name, data := range filesC {
			if !bytes.Equal(filesBF[name], data) {
				t.Fatalf("sync %v: %s differs between Commit and Begin and Finish", syncEach, name)
			}
		}
	}
}

// TestRefusedBeginWritesNothing: a block past a gap, a duplicate and a
// block off the chain are refused by Begin with the error Commit returns,
// and the segment file does not grow; the next block still begins.
func TestRefusedBeginWritesNothing(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	blocks := f.chain(t, l, 2)
	path := filepath.Join(dir, "blockfile_000000")
	size := fileSize(t, path)
	for _, c := range []struct {
		name string
		b    *block.Block
		want error
	}{
		{"gap", f.block(t, 3, block.HeaderHash(&blocks[1].Header)), ErrOutOfOrder},
		{"duplicate", blocks[0], ErrDuplicateBlock},
		{"broken chain", f.block(t, 2, []byte("not block 1's hash")), ErrBrokenChain},
	} {
		if err := l.Begin(c.b); !errors.Is(err, c.want) {
			t.Fatalf("%s: err %v, want %v", c.name, err, c.want)
		}
		if got := fileSize(t, path); got != size {
			t.Fatalf("%s: the refused Begin grew the segment from %d to %d bytes", c.name, size, got)
		}
	}
	if err := l.Begin(f.block(t, 2, block.HeaderHash(&blocks[1].Header))); err != nil {
		t.Fatal(err)
	}
}

// TestBegunBlockInvisibleUntilFinish: a begun block is not readable and
// moves neither the height nor the commit hash; only Finish of that very
// block, with one flag per envelope, commits it. Finish without Begin, of
// another block or with the wrong flag count, and a second Begin, error
// and change nothing.
func TestBegunBlockInvisibleUntilFinish(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b0 := f.chain(t, l, 1)[0]
	ch0 := l.LastCommitHash()
	b1, flags := f.flagged(t, 1, block.HeaderHash(&b0.Header))
	b2, _ := f.flagged(t, 2, block.HeaderHash(&b1.Header))

	if _, err := l.Finish(b1); err == nil {
		t.Fatal("Finish with nothing begun succeeded")
	}
	if err := l.Begin(b1); err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		if h := l.Height(); h != 1 {
			t.Fatalf("%s: height %d, want 1", when, h)
		}
		if _, err := l.Get(1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Get(1) = %v, want ErrNotFound", when, err)
		}
		if !bytes.Equal(l.LastCommitHash(), ch0) {
			t.Fatalf("%s: the commit hash moved", when)
		}
	}
	unchanged("begun")
	if err := l.Begin(b1); err == nil {
		t.Fatal("a second Begin of a begun block succeeded")
	}
	if _, err := l.Finish(b2); err == nil {
		t.Fatal("Finish of a block other than the begun one succeeded")
	}
	b1.Metadata.ValidationFlags = flags[1:]
	if _, err := l.Finish(b1); err == nil {
		t.Fatal("Finish with one flag too few succeeded")
	}
	unchanged("after the refused calls")

	b1.Metadata.ValidationFlags = flags
	ch1, err := l.Finish(b1)
	if err != nil {
		t.Fatal(err)
	}
	if h := l.Height(); h != 2 {
		t.Fatalf("height %d after Finish, want 2", h)
	}
	got, err := l.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Metadata.CommitHash, ch1) || !bytes.Equal(l.LastCommitHash(), ch1) || !block.FlagsEqual(got.Metadata.ValidationFlags, flags) {
		t.Fatal("the finished block reads back with other metadata than Finish set")
	}
}

// TestCloseWithBegunRecordRecovers: a ledger closed between Begin and
// Finish, as a crash would leave it, reopens with the half record
// truncated as a torn tail, at the height it had before Begin, and commits
// the block again.
func TestCloseWithBegunRecordRecovers(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := f.chain(t, l, 2)
	path := filepath.Join(dir, "blockfile_000000")
	size := fileSize(t, path)
	b2, flags := f.flagged(t, 2, block.HeaderHash(&blocks[1].Header))
	if err := l.Begin(b2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, path) <= size {
		t.Fatal("Begin wrote nothing")
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with a begun record: %v", err)
	}
	defer l2.Close()
	if h := l2.Height(); h != 2 {
		t.Fatalf("height %d after reopen, want 2", h)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("segment is %d bytes after reopen, want the %d before Begin", got, size)
	}
	if w := l2.Warnings(); len(w) != 1 || !strings.Contains(w[0], "truncating torn tail") {
		t.Fatalf("warnings %q, want one torn-tail truncation", w)
	}
	b2.Metadata.ValidationFlags = flags
	if _, err := l2.Commit(b2); err != nil {
		t.Fatal(err)
	}
}

// TestBeginAllocatesNothing: once the buffer pool is warm, Begin's record
// encode and write allocate nothing — the pending record is held by value
// and its size is computed without a flags slice. As testing.AllocsPerRun
// does, it runs on one P and counts whole allocations per call, so that a
// runtime allocation landing beside one call is no failure.
func TestBeginAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 20
	blocks := make([]*block.Block, n)
	flags := make([][]byte, n)
	var prev []byte
	for i := range blocks {
		blocks[i], flags[i] = f.flagged(t, uint64(i), prev)
		prev = block.HeaderHash(&blocks[i].Header)
	}
	// A pooled buffer larger than any record here, so that no block's
	// size is a new high that regrows the pool's buffer.
	wire.PutBuf(make([]byte, 0, 64<<10))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var allocs uint64
	for i, b := range blocks {
		runtime.ReadMemStats(&before)
		err := l.Begin(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs += after.Mallocs - before.Mallocs
		b.Metadata.ValidationFlags = flags[i]
		if _, err := l.Finish(b); err != nil {
			t.Fatal(err)
		}
	}
	if allocs/n != 0 {
		t.Fatalf("Begin allocated %d times over %d blocks", allocs, n)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
