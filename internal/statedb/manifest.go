package statedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bmac/internal/fsutil"
)

// Checkpoint manifest: the durable link between state snapshots and ledger
// heights that makes snapshot fast-sync safe. Each checkpoint is written
// to its own generation file ("checkpoint-<height>") and the MANIFEST
// records the retained generations; recovery walks them newest-first and
// falls back to an older generation when the newest is corrupt or ahead
// of the (possibly truncated) ledger — a single bad checkpoint therefore
// costs extra replay, never a dead peer. Keeping more than one generation
// is what turns checkpoint corruption from fatal into a retry.
//
// MANIFEST layout (big-endian):
//
//	magic "BMACMAN1" [8]
//	count u64
//	count × { height u64 | nameLen u32 | name }
//	sha256 [32] over everything above
//
// The file is written atomically (temp + fsync + rename + dir-sync). A
// missing or corrupt manifest degrades to a directory scan for
// "checkpoint-*" files — slower and unordered-by-trust, never fatal.

var manifestMagic = [8]byte{'B', 'M', 'A', 'C', 'M', 'A', 'N', '1'}

// ManifestFile is the checkpoint manifest's file name.
const ManifestFile = "MANIFEST"

// ckptGenPrefix prefixes per-generation checkpoint files.
const ckptGenPrefix = "checkpoint-"

// DefaultKeepCheckpoints is how many checkpoint generations are retained
// when the caller does not say otherwise. Two: the newest for fast-sync,
// plus one fallback in case the newest is corrupt or ahead of the ledger.
const DefaultKeepCheckpoints = 2

// ErrCorruptManifest reports a manifest that failed structural or checksum
// validation (recovery falls back to a directory scan).
var ErrCorruptManifest = errors.New("statedb: corrupt checkpoint manifest")

// CheckpointRef names one retained checkpoint generation.
type CheckpointRef struct {
	File   string // base file name within the peer directory
	Height uint64 // state height the checkpoint was taken at
}

// ckptGenName returns the generation file name for a height. Heights are
// zero-padded so lexical and numeric order agree.
func ckptGenName(height uint64) string {
	return fmt.Sprintf("%s%012d", ckptGenPrefix, height)
}

// parseCkptGenName extracts the height from a generation file name.
func parseCkptGenName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptGenPrefix) {
		return 0, false
	}
	h, err := strconv.ParseUint(strings.TrimPrefix(name, ckptGenPrefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return h, true
}

// writeManifest atomically writes the manifest for refs (newest first).
func writeManifest(fsys fsutil.FS, dir string, refs []CheckpointRef) error {
	var buf []byte
	buf = append(buf, manifestMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = binary.BigEndian.AppendUint64(buf, r.Height)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.File)))
		buf = append(buf, r.File...)
	}
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	err := fsutil.Replace(fsys, filepath.Join(dir, ManifestFile), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("statedb: manifest %w", err)
	}
	return nil
}

// loadManifest reads and validates the manifest, returning refs in the
// stored (newest-first) order.
func loadManifest(fsys fsutil.FS, dir string) ([]CheckpointRef, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	if len(raw) < 8+8+sha256.Size || !bytes.Equal(raw[:8], manifestMagic[:]) {
		return nil, fmt.Errorf("%w: bad header", ErrCorruptManifest)
	}
	body, tail := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptManifest)
	}
	r := body[8:]
	if len(r) < 8 {
		return nil, fmt.Errorf("%w: truncated", ErrCorruptManifest)
	}
	count := binary.BigEndian.Uint64(r[:8])
	r = r[8:]
	if count > uint64(len(body)) {
		return nil, fmt.Errorf("%w: absurd entry count", ErrCorruptManifest)
	}
	refs := make([]CheckpointRef, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(r) < 12 {
			return nil, fmt.Errorf("%w: truncated entry", ErrCorruptManifest)
		}
		h := binary.BigEndian.Uint64(r[:8])
		n := int(binary.BigEndian.Uint32(r[8:12]))
		r = r[12:]
		if len(r) < n {
			return nil, fmt.Errorf("%w: truncated entry", ErrCorruptManifest)
		}
		name := string(r[:n])
		r = r[n:]
		if strings.ContainsAny(name, "/\\") {
			return nil, fmt.Errorf("%w: entry name escapes directory", ErrCorruptManifest)
		}
		refs = append(refs, CheckpointRef{File: name, Height: h})
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorruptManifest)
	}
	return refs, nil
}

// WriteManagedCheckpoint saves a checkpoint generation for the current
// state at height into dir and rolls the manifest: the new generation is
// prepended, the newest keep generations are retained and older ones are
// deleted only after the updated manifest is durable (a crash mid-cleanup
// leaves orphan files, which the next write sweeps). keep <= 0 means
// DefaultKeepCheckpoints. Returns the retained generations, newest first —
// callers prune ledger history against the *oldest* retained height, never
// the newest.
func WriteManagedCheckpoint(fsys fsutil.FS, dir string, kvs KVS, height uint64, keep int) ([]CheckpointRef, error) {
	if keep <= 0 {
		keep = DefaultKeepCheckpoints
	}
	name := ckptGenName(height)
	if err := SaveCheckpoint(fsys, filepath.Join(dir, name), kvs, height); err != nil {
		return nil, err
	}
	refs, err := loadManifest(fsys, dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Corrupt manifest: rebuild it from the files on disk.
		refs = scanCheckpointFiles(fsys, dir)
	}
	// Prepend/replace the new generation and keep newest-first order.
	out := []CheckpointRef{{File: name, Height: height}}
	for _, r := range refs {
		if r.File != name {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Height > out[j].Height })
	var drop []string
	if len(out) > keep {
		for _, r := range out[keep:] {
			drop = append(drop, r.File)
		}
		out = out[:keep]
	}
	if err := writeManifest(fsys, dir, out); err != nil {
		return nil, err
	}
	for _, f := range drop {
		fsys.Remove(filepath.Join(dir, f)) // bmaclint:allow errdiscard (orphan generations are swept on the next write)
	}
	return out, nil
}

// scanCheckpointFiles lists on-disk checkpoint generations newest-first —
// the fallback when the manifest is missing or corrupt.
func scanCheckpointFiles(fsys fsutil.FS, dir string) []CheckpointRef {
	entries, _ := fsys.ReadDir(dir) // bmaclint:allow errdiscard (an unlistable dir offers no candidates; recovery reports what it lacks)
	var refs []CheckpointRef
	for _, e := range entries {
		if h, ok := parseCkptGenName(e.Name()); ok {
			refs = append(refs, CheckpointRef{File: e.Name(), Height: h})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Height > refs[j].Height })
	return refs
}

// Checkpoints returns the recovery candidates in dir, newest-first, plus
// human-readable notes about any degradation met along the way (corrupt
// manifest, scan fallback). The refs are candidates, not guarantees —
// recovery validates each with LoadCheckpoint and falls through on failure.
func Checkpoints(fsys fsutil.FS, dir string) ([]CheckpointRef, []string) {
	refs, err := loadManifest(fsys, dir)
	if err == nil {
		return refs, nil
	}
	var notes []string
	if !errors.Is(err, fs.ErrNotExist) {
		notes = append(notes, fmt.Sprintf("checkpoint manifest unreadable (%v); scanning directory", err))
	}
	return scanCheckpointFiles(fsys, dir), notes
}
