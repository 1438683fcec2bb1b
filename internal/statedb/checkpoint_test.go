package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bmac/internal/block"
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
		if err := SaveCheckpoint(path, src, 5); err != nil {
			t.Fatalf("%s: save: %v", srcName, err)
		}
		snap, height, err := LoadCheckpoint(path)
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
	_, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope"))
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
	if err := SaveCheckpoint(path, src, 3); err != nil {
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
		if _, _, err := LoadCheckpoint(p); !errors.Is(err, ErrCorruptCheckpoint) {
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
	if err := SaveCheckpoint(path, s1, 1); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	seedState(s2, 8)
	if err := SaveCheckpoint(path, s2, 2); err != nil {
		t.Fatal(err)
	}
	snap, height, err := LoadCheckpoint(path)
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
	if err := SaveCheckpoint(p2, s2, 2); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(p2)
	if !bytes.Equal(a, b) {
		t.Error("checkpoints of identical state differ byte-wise")
	}
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
