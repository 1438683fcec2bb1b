package statedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fsutil"
)

// backends returns one fresh instance of every KVS backend, keyed by name.
func backends() map[string]KVS {
	return map[string]KVS{
		"memory": NewStore(),
		"hybrid": NewHybridKVS(8, NewStore()), // capacity < working set: eviction paths exercised
	}
}

func seedState(kvs KVS, n int) {
	for i := 0; i < n; i++ {
		kvs.Put(fmt.Sprintf("key%03d", i), []byte{byte(i), byte(i >> 8)},
			block.Version{BlockNum: uint64(i / 4), TxNum: uint64(i % 4)})
	}
}

// TestCheckpointRoundTrip saves and reloads a checkpoint through every
// backend, in every combination of source and destination: the restored
// snapshot hash must match the original regardless of which backend wrote
// it and which restores it.
func TestCheckpointRoundTrip(t *testing.T) {
	for srcName, src := range backends() {
		seedState(src, 20)
		path := filepath.Join(t.TempDir(), "checkpoint")
		if err := saveCheckpoint(fsutil.OS{}, path, src, 5); err != nil {
			t.Fatalf("%s: save: %v", srcName, err)
		}
		snap, height, err := LoadCheckpoint(fsutil.OS{}, path)
		if err != nil {
			t.Fatalf("%s: load: %v", srcName, err)
		}
		if height != 5 {
			t.Errorf("%s: height = %d, want 5", srcName, height)
		}
		want := SnapshotHash(src.Snapshot())
		if got := SnapshotHash(snap); !bytes.Equal(got, want) {
			t.Errorf("%s: loaded snapshot hash diverges", srcName)
		}
		for dstName, dst := range backends() {
			RestoreSnapshot(dst, snap)
			if got := SnapshotHash(dst.Snapshot()); !bytes.Equal(got, want) {
				t.Errorf("%s -> %s: restored state hash diverges", srcName, dstName)
			}
			if dst.Len() != src.Len() {
				t.Errorf("%s -> %s: %d keys restored, want %d", srcName, dstName, dst.Len(), src.Len())
			}
		}
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	_, _, err := LoadCheckpoint(fsutil.OS{}, filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want os.ErrNotExist", err)
	}
}

// TestCheckpointDetectsCorruption flips and truncates bytes: every
// mutation must surface as ErrCorruptCheckpoint, never as silently wrong
// state.
func TestCheckpointDetectsCorruption(t *testing.T) {
	src := NewStore()
	seedState(src, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	if err := saveCheckpoint(fsutil.OS{}, path, src, 3); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"flipped byte":    append(append([]byte{}, raw[:20]...), append([]byte{raw[20] ^ 0xff}, raw[21:]...)...),
		"truncated tail":  raw[:len(raw)-7],
		"truncated short": raw[:10],
		"bad magic":       append([]byte{'X'}, raw[1:]...),
	}
	for name, mutated := range cases {
		p := filepath.Join(dir, "bad")
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadCheckpoint(fsutil.OS{}, p); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}

// TestCheckpointAtomicReplace overwrites an existing checkpoint: the new
// save must fully replace the old one, and a deterministic state must
// produce byte-identical checkpoint files.
func TestCheckpointAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	s1 := NewStore()
	seedState(s1, 4)
	if err := saveCheckpoint(fsutil.OS{}, path, s1, 1); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	seedState(s2, 8)
	if err := saveCheckpoint(fsutil.OS{}, path, s2, 2); err != nil {
		t.Fatal(err)
	}
	snap, height, err := LoadCheckpoint(fsutil.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if height != 2 || len(snap) != 8 {
		t.Errorf("height=%d len=%d after replace, want 2/8", height, len(snap))
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d directory entries after two saves, want 1", len(entries))
	}
	// Determinism: same state, same bytes.
	p2 := filepath.Join(dir, "again")
	if err := saveCheckpoint(fsutil.OS{}, p2, s2, 2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(p2)
	if !bytes.Equal(a, b) {
		t.Error("checkpoints of identical state differ byte-wise")
	}
}

// TestManagedCheckpointRotation: WriteManagedCheckpoint keeps the newest
// `keep` generation files (newest first), removes the rest — an orphan
// older generation left by a crash mid-cleanup included — and Checkpoints
// reports exactly the retained set.
func TestManagedCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	kvs := NewStore()
	seedState(kvs, 8)
	for _, h := range []uint64{3, 6, 9} {
		if h == 9 {
			if err := saveCheckpoint(fsutil.OS{}, filepath.Join(dir, ckptGenName(1)), kvs, 1); err != nil {
				t.Fatal(err)
			}
		}
		refs, err := WriteManagedCheckpoint(fsutil.OS{}, dir, kvs, h, 2)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", h, err)
		}
		if refs[0].Height != h {
			t.Fatalf("newest retained %d after writing %d", refs[0].Height, h)
		}
		if len(refs) > 2 {
			t.Fatalf("retained %d generations, want <= 2", len(refs))
		}
	}
	refs := Checkpoints(fsutil.OS{}, dir)
	if len(refs) != 2 || refs[0].Height != 9 || refs[1].Height != 6 {
		t.Fatalf("refs %+v, want heights [9 6]", refs)
	}
	// The dropped height-3 generation and the orphan at 1 are gone.
	for _, h := range []uint64{1, 3} {
		if _, err := os.Stat(filepath.Join(dir, ckptGenName(h))); !os.IsNotExist(err) {
			t.Errorf("generation %d survived rotation", h)
		}
	}
	// Each retained generation loads at the height its name gives.
	for _, r := range refs {
		_, h, err := LoadCheckpoint(fsutil.OS{}, filepath.Join(dir, r.File))
		if err != nil {
			t.Fatalf("load %s: %v", r.File, err)
		}
		if h != r.Height {
			t.Errorf("%s: height %d, name says %d", r.File, h, r.Height)
		}
	}
}

// oneFile is an FS whose every ReadFile returns data.
type oneFile struct {
	fsutil.OS
	data []byte
}

func (o oneFile) ReadFile(string) ([]byte, error) { return o.data, nil }

// FuzzLoadCheckpoint wraps arbitrary bytes in the magic and a valid
// checksum trailer, so every input reaches the parser. LoadCheckpoint must
// never panic, every error must wrap ErrCorruptCheckpoint, and an accepted
// file, saved again and reloaded, keeps its height and SnapshotHash.
func FuzzLoadCheckpoint(f *testing.F) {
	body := func(kvs KVS, height uint64) []byte {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, kvs.Snapshot(), height); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[len(ckptMagic) : buf.Len()-sha256.Size]
	}
	three := NewStore()
	seedState(three, 3)
	f.Add(body(three, 7))
	f.Add(body(NewStore(), 0))
	// A 60-byte file claiming 2^36 entries.
	f.Add(append(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), 1<<36), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		raw := append(ckptMagic[:len(ckptMagic):len(ckptMagic)], b...)
		sum := sha256.Sum256(raw)
		snap, height, err := LoadCheckpoint(oneFile{data: append(raw, sum[:]...)}, "checkpoint")
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("error %v does not wrap ErrCorruptCheckpoint", err)
			}
			return
		}
		var again bytes.Buffer
		if err := writeSnapshot(&again, snap, height); err != nil {
			t.Fatal(err)
		}
		snap2, height2, err := LoadCheckpoint(oneFile{data: again.Bytes()}, "checkpoint")
		if err != nil {
			t.Fatalf("resaved checkpoint: %v", err)
		}
		if height2 != height || !bytes.Equal(SnapshotHash(snap2), SnapshotHash(snap)) {
			t.Fatalf("resaved checkpoint reloads at height %d, want %d, or with another state", height2, height)
		}
	})
}

func TestSnapshotHashSensitivity(t *testing.T) {
	a := NewStore()
	seedState(a, 6)
	base := SnapshotHash(a.Snapshot())

	b := NewStore()
	seedState(b, 6)
	if !bytes.Equal(base, SnapshotHash(b.Snapshot())) {
		t.Error("identical states hash differently")
	}
	b.Put("key000", []byte{0xff}, block.Version{})
	if bytes.Equal(base, SnapshotHash(b.Snapshot())) {
		t.Error("changed value not reflected in hash")
	}
	c := NewStore()
	seedState(c, 6)
	c.Put("key000", []byte{0, 0}, block.Version{BlockNum: 9, TxNum: 9})
	if bytes.Equal(base, SnapshotHash(c.Snapshot())) {
		t.Error("changed version not reflected in hash")
	}
}
