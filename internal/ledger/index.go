package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"bmac/internal/fsutil"
)

// The persistent index makes Get O(1) across restarts without rescanning
// sealed segments. It records, for every *sealed* segment, the segment
// metadata (mirroring its footer) plus each block's (offset, length); the
// active segment is deliberately absent — it is always tail-scanned on
// open, which is also where torn-tail truncation lives.
//
// Layout:
//
//	magic "BMACIDX2" [8]
//	base u64                  — first retained block number (prune floor)
//	baseHashLen u64 | baseHash           — header hash of block base-1
//	baseCommitHashLen u64 | baseCommitHash — commit hash of block base-1
//	segCount u64
//	segCount × { id u64 | first u64 | count u64 | dataLen u64 | crc32c u32 }
//	segCount × count × { offset u64 | length u64 }
//	crc32c u32                — over everything above
//
// Both sums are the segment checksum (extendSum, segment.go); a segment
// row's is its footer's. An index in the parent format ("BMACIDX1", with
// SHA-256 sums) fails the magic check and is rebuilt by the rescan.
//
// The base hashes anchor the chain when every block below base was pruned:
// without them a fully-pruned ledger could not verify (or produce) the
// next block's previous-hash/commit-hash linkage after a restart. They are
// immutable once written (block base-1 never changes), so index rewrites
// at seal/prune time are sufficient.
//
// The file is written atomically (temp + fsync + rename + dir-sync); a
// missing, truncated or checksum-failing index triggers a full rebuild by
// scanning the segment files — slower, never incorrect.

var indexMagic = [8]byte{'B', 'M', 'A', 'C', 'I', 'D', 'X', '2'}

// ErrCorruptIndex reports an unreadable persistent index (the ledger
// recovers by rescanning segments; this error is only surfaced in tests).
var ErrCorruptIndex = errors.New("ledger: corrupt index")

// indexSegment is one sealed segment's row in the persistent index.
type indexSegment struct {
	id      uint64
	first   uint64
	count   uint64
	dataLen int64
	sum     uint32
	offsets []entry // seg pointer unset; offset/length only
}

// persistIndexLocked atomically rewrites the index file from the in-memory
// state (sealed segments only). It must be called with l.mu held.
func (l *Ledger) persistIndexLocked() error {
	var buf []byte
	buf = append(buf, indexMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, l.base)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(l.baseHash)))
	buf = append(buf, l.baseHash...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(l.baseCommitHash)))
	buf = append(buf, l.baseCommitHash...)
	var sealed []*segment
	for _, s := range l.segs {
		if s.sealed {
			sealed = append(sealed, s)
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(sealed)))
	for _, s := range sealed {
		buf = binary.BigEndian.AppendUint64(buf, s.id)
		buf = binary.BigEndian.AppendUint64(buf, s.first)
		buf = binary.BigEndian.AppendUint64(buf, s.count)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.dataLen))
		buf = binary.BigEndian.AppendUint32(buf, s.sum)
	}
	for _, s := range sealed {
		for n := s.first; n < s.first+s.count; n++ {
			e := l.entries[n-l.base]
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.offset))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.length))
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, extendSum(0, buf))

	err := fsutil.Replace(l.fs, filepath.Join(l.dir, indexFile), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("index %w", err)
	}
	return nil
}

// indexData is a decoded persistent index.
type indexData struct {
	base           uint64
	baseHash       []byte
	baseCommitHash []byte
	segs           map[uint64]*indexSegment
}

// loadIndex reads and validates the persistent index. A missing file
// returns os.ErrNotExist; any structural or checksum problem returns
// ErrCorruptIndex and the caller falls back to a full rescan.
func loadIndex(fsys fsutil.FS, dir string) (*indexData, error) {
	buf, err := fsys.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	if len(buf) < 8+8+8+8+8+4 || [8]byte(buf[:8]) != indexMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCorruptIndex)
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if binary.BigEndian.Uint32(trailer) != extendSum(0, body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptIndex)
	}
	pos := 8
	structErr := fmt.Errorf("%w: truncated body", ErrCorruptIndex)
	u64 := func() (uint64, bool) {
		if pos+8 > len(body) {
			return 0, false
		}
		v := binary.BigEndian.Uint64(body[pos:])
		pos += 8
		return v, true
	}
	bytesField := func() ([]byte, bool) {
		n, ok := u64()
		if !ok || n > uint64(len(body)-pos) {
			return nil, false
		}
		if n == 0 {
			return nil, true
		}
		out := append([]byte(nil), body[pos:pos+int(n)]...)
		pos += int(n)
		return out, true
	}
	d := &indexData{segs: make(map[uint64]*indexSegment)}
	var ok bool
	if d.base, ok = u64(); !ok {
		return nil, structErr
	}
	if d.baseHash, ok = bytesField(); !ok {
		return nil, structErr
	}
	if d.baseCommitHash, ok = bytesField(); !ok {
		return nil, structErr
	}
	segCount, ok := u64()
	if !ok || segCount > uint64(len(body)) {
		return nil, fmt.Errorf("%w: absurd segment count", ErrCorruptIndex)
	}
	segs := make([]*indexSegment, 0, segCount)
	var totalBlocks uint64
	for i := uint64(0); i < segCount; i++ {
		if pos+8*4+4 > len(body) {
			return nil, structErr
		}
		is := &indexSegment{}
		is.id, _ = u64()
		is.first, _ = u64()
		is.count, _ = u64()
		dl, _ := u64()
		is.dataLen = int64(dl)
		is.sum = binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if is.count > uint64(len(body)-pos)/16 {
			return nil, fmt.Errorf("%w: entry table size mismatch", ErrCorruptIndex)
		}
		segs = append(segs, is)
		totalBlocks += is.count
	}
	if uint64(len(body)-pos) != totalBlocks*16 {
		return nil, fmt.Errorf("%w: entry table size mismatch", ErrCorruptIndex)
	}
	for _, is := range segs {
		is.offsets = make([]entry, is.count)
		for j := range is.offsets {
			off, _ := u64()
			ln, _ := u64()
			is.offsets[j] = entry{offset: int64(off), length: int64(ln)}
		}
		d.segs[is.id] = is
	}
	return d, nil
}

// removeStaleTemps deletes what a crashed prior process left half-written
// in dir: the temp files of an interrupted fsutil.Replace (the index's,
// and a peer's checkpoints, which share the directory) and aborted restore
// files.
func removeStaleTemps(fsys fsutil.FS, dir string, warnf func(string, ...any)) {
	removed := fsutil.RemoveTemps(fsys, dir)
	entries, _ := fsys.ReadDir(dir) // bmaclint:allow errdiscard (best effort: the segment listing right after reports an unreadable dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), restoreSuffix) && fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			removed = append(removed, e.Name())
		}
	}
	for _, name := range removed {
		warnf("removed stale temp file %s", name)
	}
}
