package statedb

import (
	"os"
	"path/filepath"
	"testing"

	"bmac/internal/fsutil"
)

// TestManagedCheckpointRotation: WriteManagedCheckpoint keeps the newest
// `keep` generations in the manifest (newest first), deletes the files it
// dropped, and Checkpoints reports exactly the retained set.
func TestManagedCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	kvs := NewStore()
	seedState(kvs, 8)
	for _, h := range []uint64{3, 6, 9} {
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
	refs, notes := Checkpoints(fsutil.OS{}, dir)
	if len(notes) != 0 {
		t.Fatalf("clean directory produced notes: %v", notes)
	}
	if len(refs) != 2 || refs[0].Height != 9 || refs[1].Height != 6 {
		t.Fatalf("refs %+v, want heights [9 6]", refs)
	}
	// The dropped height-3 generation file is gone.
	if _, err := os.Stat(filepath.Join(dir, ckptGenName(3))); !os.IsNotExist(err) {
		t.Error("dropped generation file survived rotation")
	}
	// Each retained generation loads at its recorded height.
	for _, r := range refs {
		_, h, err := LoadCheckpoint(fsutil.OS{}, filepath.Join(dir, r.File))
		if err != nil {
			t.Fatalf("load %s: %v", r.File, err)
		}
		if h != r.Height {
			t.Errorf("%s: height %d, manifest says %d", r.File, h, r.Height)
		}
	}
}

// TestManifestCorruptionFallsBackToScan: a clobbered MANIFEST degrades to
// a directory scan (with a note), never to a dead peer, and the next
// managed write rebuilds it.
func TestManifestCorruptionFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	kvs := NewStore()
	seedState(kvs, 4)
	for _, h := range []uint64{2, 4} {
		if _, err := WriteManagedCheckpoint(fsutil.OS{}, dir, kvs, h, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, notes := Checkpoints(fsutil.OS{}, dir)
	if len(notes) == 0 {
		t.Error("corrupt manifest produced no degradation note")
	}
	if len(refs) != 2 || refs[0].Height != 4 || refs[1].Height != 2 {
		t.Fatalf("scan fallback refs %+v, want heights [4 2]", refs)
	}
	// The next write repairs the manifest.
	if _, err := WriteManagedCheckpoint(fsutil.OS{}, dir, kvs, 6, 2); err != nil {
		t.Fatal(err)
	}
	refs, notes = Checkpoints(fsutil.OS{}, dir)
	if len(notes) != 0 {
		t.Fatalf("manifest still degraded after rewrite: %v", notes)
	}
	if len(refs) != 2 || refs[0].Height != 6 {
		t.Fatalf("refs %+v after repair, want newest 6", refs)
	}
}

// TestManifestRejectsEscapingNames: a manifest entry whose file name
// escapes the peer directory is structural corruption, not a candidate.
func TestManifestRejectsEscapingNames(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(fsutil.OS{}, dir, []CheckpointRef{{File: "../evil", Height: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(fsutil.OS{}, dir); err == nil {
		t.Fatal("escaping manifest entry accepted")
	}
}
