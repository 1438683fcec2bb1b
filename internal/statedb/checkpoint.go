package statedb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bmac/internal/block"
	"bmac/internal/fsutil"
)

// Checkpoint file layout (all integers big-endian):
//
//	magic   [8]byte  "BMACCKP1"
//	height  uint64   blocks [0, height) are reflected in the state
//	count   uint64   number of entries
//	entry*  keyLen uint32, key, valLen uint32, value, verBlock uint64, verTx uint64
//	sum     [32]byte sha256 of everything above
//
// The trailer checksum turns any torn or bit-rotted checkpoint into a clean
// load error instead of silently corrupt state; writers publish via
// write-to-temp + fsync + atomic rename, so a crash mid-save leaves the
// previous checkpoint intact.
var ckptMagic = [8]byte{'B', 'M', 'A', 'C', 'C', 'K', 'P', '1'}

// ErrCorruptCheckpoint reports a checkpoint file that failed structural or
// checksum validation.
var ErrCorruptCheckpoint = errors.New("statedb: corrupt checkpoint")

// saveCheckpoint atomically serializes the database snapshot plus the state
// height (number of blocks applied) to path through fsys. The write goes to
// a temporary file in the same directory, is fsynced, and is renamed over
// path; the directory is fsynced afterwards so the rename itself is durable.
func saveCheckpoint(fsys fsutil.FS, path string, kvs KVS, height uint64) error {
	snap := kvs.Snapshot()
	err := fsutil.Replace(fsys, path, func(f io.Writer) error { return writeSnapshot(f, snap, height) })
	if err != nil {
		return fmt.Errorf("statedb: checkpoint %w", err)
	}
	return nil
}

// writeSnapshot streams the checkpoint file's bytes, trailer checksum
// included, to f.
func writeSnapshot(f io.Writer, snap map[string]VersionedValue, height uint64) error {
	sum := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)

	if _, err := w.Write(ckptMagic[:]); err != nil {
		return err
	}
	var u64 [8]byte
	writeU64 := func(v uint64) error {
		binary.BigEndian.PutUint64(u64[:], v)
		_, err := w.Write(u64[:])
		return err
	}
	var u32 [4]byte
	writeBytes := func(b []byte) error {
		binary.BigEndian.PutUint32(u32[:], uint32(len(b)))
		if _, err := w.Write(u32[:]); err != nil {
			return err
		}
		_, err := w.Write(b)
		return err
	}
	// Deterministic order: the same state always produces the same file, so
	// checkpoint bytes (and their hashes) are comparable across peers.
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	werr := writeU64(height)
	if werr == nil {
		werr = writeU64(uint64(len(keys)))
	}
	for _, k := range keys {
		if werr != nil {
			break
		}
		v := snap[k]
		if werr = writeBytes([]byte(k)); werr == nil {
			if werr = writeBytes(v.Value); werr == nil {
				if werr = writeU64(v.Version.BlockNum); werr == nil {
					werr = writeU64(v.Version.TxNum)
				}
			}
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		return werr
	}
	_, err := f.Write(sum.Sum(nil))
	return err
}

// LoadCheckpoint reads and validates a checkpoint file, returning the state
// snapshot and the height it was taken at. A missing file reports an error
// wrapping os.ErrNotExist; any structural or checksum failure reports
// ErrCorruptCheckpoint.
func LoadCheckpoint(fsys fsutil.FS, path string) (map[string]VersionedValue, uint64, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < len(ckptMagic)+16+sha256.Size {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrCorruptCheckpoint, len(raw))
	}
	body, tail := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptCheckpoint)
	}
	if !bytes.Equal(body[:len(ckptMagic)], ckptMagic[:]) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	r := body[len(ckptMagic):]
	readU64 := func() (uint64, bool) {
		if len(r) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(r[:8])
		r = r[8:]
		return v, true
	}
	readBytes := func() ([]byte, bool) {
		if len(r) < 4 {
			return nil, false
		}
		n := int(binary.BigEndian.Uint32(r[:4]))
		r = r[4:]
		if n < 0 || len(r) < n {
			return nil, false
		}
		b := r[:n]
		r = r[n:]
		return b, true
	}
	height, ok := readU64()
	if !ok {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorruptCheckpoint)
	}
	count, ok := readU64()
	if !ok {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorruptCheckpoint)
	}
	// The checksum is no authenticator: bound count by the smallest entry
	// (24 bytes) before it sizes the map.
	if count > uint64(len(r))/24 {
		return nil, 0, fmt.Errorf("%w: %d entries in %d bytes", ErrCorruptCheckpoint, count, len(r))
	}
	snap := make(map[string]VersionedValue, count)
	for i := uint64(0); i < count; i++ {
		key, ok := readBytes()
		if !ok {
			return nil, 0, fmt.Errorf("%w: truncated entry %d", ErrCorruptCheckpoint, i)
		}
		val, ok := readBytes()
		if !ok {
			return nil, 0, fmt.Errorf("%w: truncated entry %d", ErrCorruptCheckpoint, i)
		}
		vb, ok1 := readU64()
		vt, ok2 := readU64()
		if !ok1 || !ok2 {
			return nil, 0, fmt.Errorf("%w: truncated entry %d", ErrCorruptCheckpoint, i)
		}
		v := make([]byte, len(val))
		copy(v, val)
		snap[string(key)] = VersionedValue{Value: v, Version: block.Version{BlockNum: vb, TxNum: vt}}
	}
	if len(r) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptCheckpoint, len(r))
	}
	return snap, height, nil
}

// Checkpoint generations: each checkpoint is its own file,
// "checkpoint-<height>", and the generation files in a directory are the
// retained set — nothing else records them. Recovery walks them
// newest-first and falls back to an older generation when the newest is
// corrupt or ahead of the (possibly truncated) ledger, so a single bad
// checkpoint costs extra replay, never a dead peer. Keeping more than one
// generation is what turns checkpoint corruption from fatal into a retry.

// ckptGenPrefix prefixes per-generation checkpoint files.
const ckptGenPrefix = "checkpoint-"

// DefaultKeepCheckpoints is how many checkpoint generations are retained
// when a caller's keep is <= 0 (as DurableOptions.KeepCheckpoints and the
// YAML durability.keep_checkpoints are by default). Two: the newest for
// fast-sync, plus one fallback in case the newest is corrupt or ahead of
// the ledger.
const DefaultKeepCheckpoints = 2

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

// WriteManagedCheckpoint saves a checkpoint generation for the current
// state at height into dir, then removes every generation file but the
// newest keep (keep <= 0 means DefaultKeepCheckpoints). The new generation
// is durable before any older one is removed; a crash mid-cleanup leaves
// extra generations, which recovery may use and the next write removes.
// Returns the retained generations, newest first — callers prune ledger
// history against the *oldest* retained height, never the newest.
func WriteManagedCheckpoint(fsys fsutil.FS, dir string, kvs KVS, height uint64, keep int) ([]CheckpointRef, error) {
	if keep <= 0 {
		keep = DefaultKeepCheckpoints
	}
	if err := saveCheckpoint(fsys, filepath.Join(dir, ckptGenName(height)), kvs, height); err != nil {
		return nil, err
	}
	refs := Checkpoints(fsys, dir)
	if len(refs) > keep {
		for _, r := range refs[keep:] {
			fsys.Remove(filepath.Join(dir, r.File)) // bmaclint:allow errdiscard (a generation that survives is removed by the next write)
		}
		refs = refs[:keep]
	}
	return refs, nil
}

// Checkpoints lists the checkpoint generations in dir, newest-first. They
// are candidates, not guarantees: recovery validates each with
// LoadCheckpoint and falls through on failure.
func Checkpoints(fsys fsutil.FS, dir string) []CheckpointRef {
	entries, _ := fsys.ReadDir(dir) // bmaclint:allow errdiscard (an unlistable dir offers no candidates; recovery reports what it lacks)
	var refs []CheckpointRef
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), ckptGenPrefix)
		if h, err := strconv.ParseUint(num, 10, 64); ok && err == nil {
			refs = append(refs, CheckpointRef{File: e.Name(), Height: h})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Height > refs[j].Height })
	return refs
}

// RestoreSnapshot loads a snapshot into an empty database. Works against
// every KVS backend (Put writes through the hybrid cache to its host store).
func RestoreSnapshot(kvs KVS, snap map[string]VersionedValue) {
	for k, v := range snap {
		kvs.Put(k, v.Value, v.Version)
	}
}

// SnapshotHash returns a deterministic digest of a state snapshot: keys in
// sorted order, each with its value and version. Two databases hold the
// same state iff their snapshot hashes are equal, which is how the cluster
// churn scenario proves a recovered peer converged.
func SnapshotHash(snap map[string]VersionedValue) []byte {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var u64 [8]byte
	var u32 [4]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(b)))
		h.Write(u32[:])
		h.Write(b)
	}
	for _, k := range keys {
		v := snap[k]
		put([]byte(k))
		put(v.Value)
		binary.BigEndian.PutUint64(u64[:], v.Version.BlockNum)
		h.Write(u64[:])
		binary.BigEndian.PutUint64(u64[:], v.Version.TxNum)
		h.Write(u64[:])
	}
	return h.Sum(nil)
}
