package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
)

type fixture struct {
	orderer *identity.Identity
	client  *identity.Identity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	orderer, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{orderer: orderer, client: client}
}

func (f *fixture) block(t *testing.T, num uint64, prev []byte) *block.Block {
	t.Helper()
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: f.client, Chaincode: "cc", Channel: "ch",
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(num, prev, []block.Envelope{*env}, f.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCommitAndGet(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	b0 := f.block(t, 0, nil)
	ch, err := l.Commit(b0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != fabcrypto.HashSize {
		t.Errorf("commit hash length %d", len(ch))
	}
	if l.Height() != 1 {
		t.Errorf("height = %d", l.Height())
	}

	got, err := l.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Number != 0 || !bytes.Equal(got.Metadata.CommitHash, ch) {
		t.Error("block read back mismatch")
	}
}

func TestDuplicateBlockRejected(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(b0); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("err = %v, want ErrDuplicateBlock", err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Commit(f.block(t, 5, nil)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestBrokenChainRejected(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	// Block 1 with the wrong previous hash.
	bad := f.block(t, 1, fabcrypto.HashSlice([]byte("wrong")))
	if _, err := l.Commit(bad); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("err = %v, want ErrBrokenChain", err)
	}
	// Correct previous hash commits fine.
	good := f.block(t, 1, block.HeaderHash(&b0.Header))
	if _, err := l.Commit(good); err != nil {
		t.Errorf("chained commit: %v", err)
	}
}

func TestCommitHashChains(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b0 := f.block(t, 0, nil)
	h0, err := l.Commit(b0)
	if err != nil {
		t.Fatal(err)
	}
	b1 := f.block(t, 1, block.HeaderHash(&b0.Header))
	h1, err := l.Commit(b1)
	if err != nil {
		t.Fatal(err)
	}
	want := block.CommitHash(h0, b1.Header.DataHash, b1.Metadata.ValidationFlags)
	if !bytes.Equal(h1, want) {
		t.Error("commit hash chain broken")
	}
	if !bytes.Equal(l.LastCommitHash(), h1) {
		t.Error("LastCommitHash mismatch")
	}
}

func TestReopenReplaysIndex(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	b1 := f.block(t, 1, block.HeaderHash(&b0.Header))
	h1, err := l.Commit(b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Height() != 2 {
		t.Errorf("replayed height = %d, want 2", l2.Height())
	}
	if !bytes.Equal(l2.LastCommitHash(), h1) {
		t.Error("replayed commit hash mismatch")
	}
	got, err := l2.Get(0)
	if err != nil || got.Header.Number != 0 {
		t.Errorf("Get(0) after reopen: %v", err)
	}
	// And the chain continues.
	b2 := f.block(t, 2, block.HeaderHash(&b1.Header))
	if _, err := l2.Commit(b2); err != nil {
		t.Errorf("commit after reopen: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Get(3); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestSyncEachBlock(t *testing.T) {
	f := newFixture(t)
	l, err := Open(t.TempDir(), Options{SyncEachBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Commit(f.block(t, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if l.BytesWritten() == 0 {
		t.Error("no bytes recorded")
	}
}

func BenchmarkLedgerCommit(b *testing.B) {
	n := identity.NewNetwork([]byte(b.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		b.Fatal(err)
	}
	orderer, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		b.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	env, err := block.NewEndorsedEnvelope(block.TxSpec{Creator: client, Chaincode: "cc", Channel: "ch"})
	if err != nil {
		b.Fatal(err)
	}
	envs := make([]block.Envelope, 100)
	for i := range envs {
		envs[i] = *env
	}

	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	prev := []byte(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := block.NewBlock(uint64(i), prev, envs, orderer)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Commit(blk); err != nil {
			b.Fatal(err)
		}
		prev = block.HeaderHash(&blk.Header)
	}
}

func TestTornTailWriteRecovered(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a length prefix promising more bytes
	// than were written.
	path := filepath.Join(dir, "blockfile_000000")
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0, 0, 0, 0, 0, 0, 1, 0, 0xde, 0xad} // claims 256 bytes, has 2
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the torn tail is ignored and the chain continues.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l2.Close()
	if l2.Height() != 1 {
		t.Errorf("height after recovery = %d, want 1", l2.Height())
	}
	b1 := f.block(t, 1, block.HeaderHash(&b0.Header))
	if _, err := l2.Commit(b1); err != nil {
		t.Errorf("commit after recovery: %v", err)
	}
}

// TestUndecodableFinalRecordTruncated covers the second torn-write shape:
// the length prefix is intact but the record bytes are garbage (a crash
// landed mid-way through the data). The trailing record is truncated with
// a warning; the chain continues from the last good block.
func TestUndecodableFinalRecordTruncated(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a well-framed but undecodable record.
	path := filepath.Join(dir, "blockfile_000000")
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xff}, 64)
	var lenBuf [8]byte
	lenBuf[7] = 64
	if _, err := fh.Write(append(lenBuf[:], garbage...)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after undecodable tail: %v", err)
	}
	defer l2.Close()
	if l2.Height() != 1 {
		t.Errorf("height = %d, want 1", l2.Height())
	}
	if len(l2.Warnings()) == 0 {
		t.Error("no recovery warning recorded")
	}
	if got := fileSize(t, path); got >= sizeBefore {
		t.Errorf("torn tail not physically truncated: %d >= %d bytes", got, sizeBefore)
	}
	b1 := f.block(t, 1, block.HeaderHash(&b0.Header))
	if _, err := l2.Commit(b1); err != nil {
		t.Errorf("commit after recovery: %v", err)
	}
}

// TestMidFileCorruptionStillFails pins the boundary of the tail-repair
// logic: a broken record with valid blocks after it is NOT a torn write,
// and silently skipping committed blocks would fork the chain — Open must
// fail.
func TestMidFileCorruptionStillFails(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	b1 := f.block(t, 1, block.HeaderHash(&b0.Header))
	if _, err := l.Commit(b1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite block 0's record body (not the length prefix) in place:
	// the first record is garbage, the second is intact.
	path := filepath.Join(dir, "blockfile_000000")
	fh, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(bytes.Repeat([]byte{0xff}, 32), 8); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

// TestAbsurdLengthPrefixTruncated guards the replay allocator: a torn
// length prefix that decodes to an absurd size (larger than the file)
// must be treated as a torn tail, not as an allocation request.
func TestAbsurdLengthPrefixTruncated(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "blockfile_000000")
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xaa}
	if _, err := fh.Write(huge); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after absurd length prefix: %v", err)
	}
	defer l2.Close()
	if l2.Height() != 1 || len(l2.Warnings()) == 0 {
		t.Errorf("height=%d warnings=%v", l2.Height(), l2.Warnings())
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestZeroLengthRecordMidFileFails pins the review fix: a zero-length
// record with valid data after it is mid-file corruption, not a torn
// tail — truncating would destroy committed blocks, so Open must fail.
// The same zero prefix at the very end IS a torn tail and is truncated.
func TestZeroLengthRecordMidFileFails(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := f.block(t, 0, nil)
	if _, err := l.Commit(b0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "blockfile_000000")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Zero-length prefix followed by the valid block again: mid-file.
	var zero [8]byte
	bad := append(append(append([]byte{}, good...), zero[:]...), good...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("zero-length record mid-file silently truncated")
	}

	// The same zero prefix as the last bytes of the file: torn tail.
	if err := os.WriteFile(path, append(append([]byte{}, good...), zero[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("trailing zero prefix: %v", err)
	}
	defer l2.Close()
	if l2.Height() != 1 || len(l2.Warnings()) == 0 {
		t.Errorf("height=%d warnings=%v", l2.Height(), l2.Warnings())
	}
}
