package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"bmac/internal/block"
	"bmac/internal/fsutil"
	"bmac/internal/wire"
)

// This file is the damage-control surface of the segmented store:
//
//   - quarantine: a sealed segment whose bytes no longer match its footer
//     checksum is renamed aside and its block range recorded as missing,
//     instead of failing the peer. Every block of the range remains
//     addressable (Get returns ErrMissing) so catch-up readers get a
//     precise signal.
//   - restore: the missing range is backfilled in order from redelivered
//     archive blocks (delivery catch-up). Verification is structural, not
//     trust-based: each block's DataHash is recomputed from its envelopes
//     and the header chain must close against the live successor block
//     (or the in-memory tail hash), which pins the entire range — a
//     restored segment holds the ordered archive copy of those blocks,
//     byte-equivalent in every consensus-relevant field.
//   - truncate: blocks at/above a recovery point are dropped (renamed
//     aside) so delivery recommits them — used when a missing range sits
//     above the newest usable checkpoint, where replay could never cross
//     the gap.
//   - prune: sealed segments fully below a durable checkpoint are deleted
//     from the front, bounding disk growth; the chain stays anchored via
//     the persisted base hashes.

// restoreSuffix names the file a restore writes before it is complete.
const restoreSuffix = ".restore"

// quarantineName finds an unused aside-name for a quarantined segment.
func quarantineName(fsys fsutil.FS, path string) string {
	for i := 0; ; i++ {
		cand := path + ".quarantined"
		if i > 0 {
			cand = fmt.Sprintf("%s.quarantined-%d", path, i)
		}
		f, err := fsys.OpenFile(cand, os.O_RDONLY, 0)
		if errors.Is(err, fs.ErrNotExist) {
			return cand
		}
		if err == nil {
			f.Close() // bmaclint:allow errdiscard (read-only probe of a taken name)
		}
	}
}

// quarantineSegLocked renames a checksum-failing sealed segment aside and
// records its block range as missing. live distinguishes a runtime
// quarantine (segment already adopted: entries cleared in place, segment
// unlinked) from an open-time one (segment not yet adopted: hole entries
// appended). It must be called with l.mu held.
func (l *Ledger) quarantineSegLocked(seg *segment, live bool) {
	aside := quarantineName(l.fs, seg.path)
	if err := l.fs.Rename(seg.path, aside); err != nil {
		// The bytes are bad either way; keep going on the in-memory state
		// and let a later open retry the rename.
		l.warnf("quarantine rename of segment %06d failed: %v", seg.id, err)
	} else {
		l.warnf("segment %06d (blocks [%d,%d)) quarantined to %s; range awaits re-fetch",
			seg.id, seg.first, seg.first+seg.count, filepath.Base(aside))
	}
	if live {
		for i, s := range l.segs {
			if s == seg {
				l.segs = append(l.segs[:i], l.segs[i+1:]...)
				break
			}
		}
		for n := seg.first; n < seg.first+seg.count; n++ {
			l.entries[n-l.base] = entry{}
		}
	} else {
		for n := uint64(0); n < seg.count; n++ {
			l.entries = append(l.entries, entry{})
		}
	}
	seg.drainReaders()
	l.missing = append(l.missing, Range{First: seg.first, Count: seg.count, segID: seg.id})
	sort.Slice(l.missing, func(i, j int) bool { return l.missing[i].First < l.missing[j].First })
	l.quarantined++
}

// verifyAndQuarantineLocked re-verifies a sealed segment after a failed
// read and quarantines it on checksum mismatch. A passing checksum means
// the read failure was transient (or a stale handle racing retirement)
// and the segment is left alone. It must be called with l.mu held.
func (l *Ledger) verifyAndQuarantineLocked(seg *segment, cause error) {
	adopted := false
	for _, s := range l.segs {
		if s == seg {
			adopted = true
			break
		}
	}
	if !adopted || !seg.sealed {
		return // already retired by a concurrent quarantine or prune
	}
	if err := seg.verifyChecksum(); err == nil {
		return
	}
	l.warnf("sealed segment %06d failed checksum after read error (%v)", seg.id, cause)
	l.quarantineSegLocked(seg, true)
	if err := l.persistIndexLocked(); err != nil {
		l.warnf("index persist after quarantine failed: %v (reopen will rescan)", err)
	}
}

// NeedsRestore reports whether the block number falls inside a
// quarantined, not-yet-restored range. peer.Follow uses it to route
// redelivered historical blocks into Restore instead of dropping them as
// duplicates.
func (l *Ledger) NeedsRestore(num uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.missing {
		if num >= r.First && num < r.First+r.Count {
			return true
		}
	}
	return false
}

// restoreState tracks an in-progress backfill of one missing range into a
// fresh segment file (written under a .restore temp name; adopted only
// after the full range verifies and seals).
type restoreState struct {
	r       Range
	tmp     string
	final   string
	f       fsutil.File
	h       hash.Hash
	next    uint64
	prev    []byte // header hash of the last accepted block (nil = unanchored start)
	offsets []entry
	dataLen int64
}

// abortRestoreLocked discards the in-progress restore, if any, and its
// partial file. It must be called with l.mu held.
func (l *Ledger) abortRestoreLocked() {
	if l.rst == nil {
		return
	}
	if l.rst.f != nil {
		l.rst.f.Close() // bmaclint:allow errdiscard (discarding a partial restore file)
	}
	l.fs.Remove(l.rst.tmp) // bmaclint:allow errdiscard (discarding a partial restore file)
	l.rst = nil
}

// Restore feeds one redelivered archive block into the backfill of a
// quarantined range. Blocks must arrive in order starting at a missing
// range's first number (a block equal to the range start resets any
// partial attempt, so a re-wound delivery stream can always start over).
// Each block is verified structurally — recomputed DataHash, previous-hash
// linkage — and on range completion the chain must close against the live
// successor block (or the ledger tail hash), which cryptographically pins
// every restored byte. The completed segment is sealed, fsynced and
// adopted atomically; the missing range disappears and Get serves it
// again.
func (l *Ledger) Restore(b *block.Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()

	num := b.Header.Number
	// A block at a missing range's start (re)starts that range's backfill.
	if l.rst == nil || num == l.rst.r.First {
		started := false
		for _, r := range l.missing {
			if num == r.First {
				l.abortRestoreLocked()
				if err := l.beginRestoreLocked(r); err != nil {
					return err
				}
				started = true
				break
			}
		}
		if !started && l.rst == nil {
			return fmt.Errorf("%w: block %d does not start a missing range", ErrRestore, num)
		}
	}
	rst := l.rst
	if num != rst.next {
		return fmt.Errorf("%w: got block %d, expected %d", ErrRestore, num, rst.next)
	}
	if err := l.acceptRestoreLocked(rst, b); err != nil {
		l.abortRestoreLocked()
		return err
	}
	if rst.next == rst.r.First+rst.r.Count {
		if err := l.finishRestoreLocked(rst); err != nil {
			l.abortRestoreLocked()
			return err
		}
		l.rst = nil
	}
	return nil
}

// beginRestoreLocked opens the temp segment file for a missing range and
// seeds the verification chain from the predecessor block (or the prune
// floor anchor). It must be called with l.mu held.
func (l *Ledger) beginRestoreLocked(r Range) error {
	final := segPath(l.dir, r.segID)
	tmp := final + restoreSuffix
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("restore temp: %w", err)
	}
	rst := &restoreState{
		r: r, tmp: tmp, final: final,
		f: f, h: sha256.New(),
		next: r.First,
	}
	switch {
	case r.First == l.base:
		rst.prev = l.baseHash
	case r.First > l.base:
		if pb, err := l.readBlockLocked(r.First - 1); err == nil {
			rst.prev = block.HeaderHash(&pb.Header)
		}
		// An unreadable predecessor (adjacent missing range) leaves the
		// start unanchored; the closing check at the end still pins the
		// whole range.
	}
	l.rst = rst
	return nil
}

// acceptRestoreLocked verifies and appends one block to the restore file.
// It must be called with l.mu held.
func (l *Ledger) acceptRestoreLocked(rst *restoreState, b *block.Block) error {
	if rst.prev != nil && !bytes.Equal(b.Header.PreviousHash, rst.prev) {
		return fmt.Errorf("%w: block %d previous-hash does not chain", ErrRestore, b.Header.Number)
	}
	if !bytes.Equal(block.DataHash(b.Envelopes), b.Header.DataHash) {
		return fmt.Errorf("%w: block %d data hash does not match its envelopes", ErrRestore, b.Header.Number)
	}
	rec := appendRecord(b)
	defer wire.PutBuf(rec)
	if _, err := rst.f.Write(rec); err != nil {
		return fmt.Errorf("restore write: %w", err)
	}
	rst.h.Write(rec)
	rst.offsets = append(rst.offsets, entry{offset: rst.dataLen, length: int64(len(rec))})
	rst.dataLen += int64(len(rec))
	rst.prev = block.HeaderHash(&b.Header)
	rst.next++
	l.restoredBlk++
	return nil
}

// finishRestoreLocked closes the chain against the live successor, seals
// the restored file and adopts it as a sealed segment. It must be called
// with l.mu held.
func (l *Ledger) finishRestoreLocked(rst *restoreState) error {
	end := rst.r.First + rst.r.Count
	if end < l.height {
		succ, err := l.readBlockLocked(end)
		if err != nil {
			return fmt.Errorf("%w: successor block %d unreadable for closure: %v", ErrRestore, end, err)
		}
		if !bytes.Equal(succ.Header.PreviousHash, rst.prev) {
			return fmt.Errorf("%w: restored range does not chain into block %d", ErrRestore, end)
		}
	} else if !bytes.Equal(l.lastHash, rst.prev) {
		return fmt.Errorf("%w: restored tail range does not match ledger tail hash", ErrRestore)
	}

	var sum [sha256Size]byte
	rst.h.Sum(sum[:0])
	if err := sealFile(rst.f, rst.r.First, rst.r.Count, rst.dataLen, sum); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	rst.f = nil
	if err := l.fs.Rename(rst.tmp, rst.final); err != nil {
		return fmt.Errorf("restore rename: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}

	seg := newSegment(l.fs, l.dir, rst.r.segID)
	seg.first, seg.count, seg.dataLen, seg.sum, seg.sealed = rst.r.First, rst.r.Count, rst.dataLen, sum, true
	for i, e := range rst.offsets {
		e.seg = seg
		l.entries[rst.r.First+uint64(i)-l.base] = e
	}
	l.segs = append(l.segs, seg)
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	for i, r := range l.missing {
		if r.First == rst.r.First {
			l.missing = append(l.missing[:i], l.missing[i+1:]...)
			break
		}
	}
	l.bytesWritten += rst.dataLen + footerSize
	l.restoredSeg++
	l.warnf("segment %06d (blocks [%d,%d)) restored from archive redelivery", seg.id, seg.first, seg.first+seg.count)
	return l.persistIndexLocked()
}

// TruncateFrom drops every block at or above h — live segments renamed
// aside (".stale"), missing ranges forgotten — and rolls the ledger height
// back to h so delivery recommits from there. h must land on a segment or
// missing-range boundary (recovery always truncates at a missing range's
// first block), and block h-1 must be readable so the commit chain stays
// anchored. Used when a quarantined range lies above the newest usable
// checkpoint: replay could never cross the gap, so the peer rolls back to
// the gap's edge and resumes from delivery.
func (l *Ledger) TruncateFrom(h uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h >= l.height {
		return nil
	}
	if h < l.base {
		return fmt.Errorf("ledger: truncate point %d below prune floor %d", h, l.base)
	}
	boundary := false
	for _, s := range l.segs {
		if s.first == h {
			boundary = true
			break
		}
	}
	for _, r := range l.missing {
		if r.First == h {
			boundary = true
			break
		}
	}
	if !boundary {
		return fmt.Errorf("ledger: truncate point %d is not a segment boundary", h)
	}

	if l.rst != nil && l.rst.r.First >= h {
		l.abortRestoreLocked()
	}
	kept := l.missing[:0]
	for _, r := range l.missing {
		if r.First < h {
			kept = append(kept, r)
		}
	}
	l.missing = kept

	activeDropped := false
	for i := len(l.segs) - 1; i >= 0; i-- {
		s := l.segs[i]
		if s.first < h {
			break
		}
		if s == l.active {
			if l.file != nil {
				l.file.Close() // bmaclint:allow errdiscard (segment is being discarded)
				l.file = nil
			}
			l.active = nil
			activeDropped = true
		}
		s.drainReaders()
		aside := s.path + ".stale"
		if err := l.fs.Rename(s.path, aside); err != nil {
			return fmt.Errorf("truncate rename segment %06d: %w", s.id, err)
		}
		l.warnf("segment %06d (blocks >= %d) set aside as %s during truncate", s.id, s.first, filepath.Base(aside))
		l.segs = l.segs[:i]
	}
	maxID := uint64(0)
	for _, s := range l.segs {
		if s.id > maxID {
			maxID = s.id
		}
	}
	l.entries = l.entries[:h-l.base]
	l.height = h
	if h > l.base {
		pb, err := l.readBlockLocked(h - 1)
		if err != nil {
			return fmt.Errorf("ledger: truncate anchor block %d unreadable: %w", h-1, err)
		}
		l.lastHash = block.HeaderHash(&pb.Header)
		l.commitHash = pb.Metadata.CommitHash
	} else {
		l.lastHash = l.baseHash
		l.commitHash = l.baseCommitHash
	}
	if activeDropped || l.active == nil {
		if err := l.startActiveLocked(maxID + 1); err != nil {
			return err
		}
	}
	return l.persistIndexLocked()
}

// Prune removes sealed segments (and swallows unrestorable missing
// ranges) whose blocks all lie below coveredHeight — typically the height
// of the newest durable state checkpoint, which makes those blocks
// redundant for this peer's recovery. The index is persisted before any
// file is unlinked, so a crash mid-prune leaves only orphan files that the
// next open removes. Returns the number of segments pruned.
func (l *Ledger) Prune(coveredHeight uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if coveredHeight > l.height {
		coveredHeight = l.height
	}
	removed := 0
	changed := false
	var unlink []string
	for {
		// A missing range at the floor that the checkpoint fully covers no
		// longer needs restoring — the state is already durable past it.
		if len(l.missing) > 0 && l.missing[0].First == l.base &&
			l.missing[0].First+l.missing[0].Count <= coveredHeight {
			r := l.missing[0]
			if l.rst != nil && l.rst.r.First == r.First {
				l.abortRestoreLocked()
			}
			l.missing = l.missing[1:]
			l.entries = l.entries[r.Count:]
			l.base = r.First + r.Count
			// The range's blocks are gone; the chain anchor above it is
			// unknown until a live segment is pruned. Clear rather than lie.
			l.baseHash, l.baseCommitHash = nil, nil
			l.warnf("quarantined range [%d,%d) dropped by prune (checkpoint covers it)", r.First, r.First+r.Count)
			changed = true
			continue
		}
		if len(l.segs) == 0 {
			break
		}
		s := l.segs[0]
		if s == l.active || !s.sealed || s.first != l.base || s.first+s.count > coveredHeight {
			break
		}
		lb, err := l.readBlockLocked(s.first + s.count - 1)
		if err != nil {
			return removed, fmt.Errorf("prune: read anchor block %d: %w", s.first+s.count-1, err)
		}
		l.baseHash = block.HeaderHash(&lb.Header)
		l.baseCommitHash = lb.Metadata.CommitHash
		s.drainReaders()
		l.segs = l.segs[1:]
		l.entries = l.entries[s.count:]
		l.base = s.first + s.count
		unlink = append(unlink, s.path)
		removed++
		changed = true
		l.pruned++
	}
	if !changed {
		return 0, nil
	}
	// Reclaim the sliced-away prefix of the entries array occasionally.
	if cap(l.entries) > 2*len(l.entries)+64 {
		l.entries = append(make([]entry, 0, len(l.entries)), l.entries...)
	}
	if err := l.persistIndexLocked(); err != nil {
		return removed, err
	}
	for _, path := range unlink {
		l.fs.Remove(path) // bmaclint:allow errdiscard (orphans are cleaned on next open)
	}
	return removed, nil
}
