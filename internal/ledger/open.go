package ledger

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"bmac/internal/block"
	"bmac/internal/fsutil"
)

// listSegmentIDs returns the ids of the plain (live) segment files in dir,
// ascending. Quarantined (".quarantined*"), temp and foreign files are
// ignored.
func listSegmentIDs(fsys fsutil.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("list segments: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		numPart, ok := strings.CutPrefix(e.Name(), segPrefix)
		if id, err := strconv.ParseUint(numPart, 10, 64); ok && err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// openLocked adopts the on-disk state: every crash window of the commit,
// seal and index paths must converge here. Sealed segments are verified
// against their footer checksum and quarantined on mismatch; the active
// (footer-less, highest-id) segment is replayed record by record with
// torn-tail truncation. A missing or corrupt index degrades to a full
// rescan, never to an error. It must be called with l.mu held.
func (l *Ledger) openLocked() error {
	removeStaleTemps(l.fs, l.dir, l.warnf)
	ids, err := listSegmentIDs(l.fs, l.dir)
	if err != nil {
		return err
	}

	idx, idxErr := loadIndex(l.fs, l.dir)
	if idxErr != nil {
		idx = nil
		if !errors.Is(idxErr, os.ErrNotExist) {
			l.warnf("persistent index unreadable (%v); rebuilding from segment scan", idxErr)
			l.rebuilds++
		} else if len(ids) > 1 {
			// More than one segment but no index: a pre-index layout or a
			// crash before the first index write. Count the rescan.
			l.warnf("persistent index missing; rebuilding from segment scan")
			l.rebuilds++
		}
	} else {
		l.base = idx.base
		l.baseHash = idx.baseHash
		l.baseCommitHash = idx.baseCommitHash
	}
	l.height = l.base

	indexDirty := false
	expected := l.base // block number expected at the next segment's start
	prevID := uint64(0)
	havePrev := false
	for i, id := range ids {
		isLast := i == len(ids)-1
		path := segPath(l.dir, id)

		var is *indexSegment
		if idx != nil {
			is = idx.segs[id]
		}
		if is != nil {
			if is.first+is.count <= l.base {
				// Fully below the prune floor: a prune crashed between
				// persisting the index and deleting the file. Finish it.
				l.warnf("removing segment %06d left behind by an interrupted prune", id)
				l.fs.Remove(path) // bmaclint:allow errdiscard (best-effort cleanup; reopen retries)
				continue
			}
			seg := newSegment(l.fs, l.dir, id)
			seg.first, seg.count, seg.dataLen, seg.sum, seg.sealed = is.first, is.count, is.dataLen, is.sum, true
			if err := l.noteGapLocked(&expected, seg.first, prevID, havePrev, id); err != nil {
				return err
			}
			if err := seg.verifyChecksum(); errors.Is(err, errParentFormat) {
				return err
			} else if err != nil {
				l.warnf("sealed segment %06d failed verification on open: %v", id, err)
				l.quarantineSegLocked(seg, false)
				indexDirty = true
			} else {
				l.adoptSealedLocked(seg, is.offsets)
			}
			expected = is.first + is.count
			l.height = expected
			prevID, havePrev = id, true
			continue
		}

		fi, ferr := readFooter(l.fs, path)
		switch {
		case ferr == nil:
			// Sealed but absent from the index: the seal crashed between
			// writing the footer and persisting the index. Rebuild its
			// entries by walking the length prefixes and re-checksumming.
			if fi.first+fi.count <= l.base {
				l.warnf("removing segment %06d left behind by an interrupted prune", id)
				l.fs.Remove(path) // bmaclint:allow errdiscard (best-effort cleanup; reopen retries)
				continue
			}
			if err := l.noteGapLocked(&expected, fi.first, prevID, havePrev, id); err != nil {
				return err
			}
			seg := newSegment(l.fs, l.dir, id)
			seg.first, seg.count, seg.dataLen, seg.sum, seg.sealed = fi.first, fi.count, fi.dataLen, fi.sum, true
			res, serr := scanSegment(l.fs, path, false, fi.first, nil, l.warnf)
			if serr != nil || res.sum != fi.sum || res.blocks != fi.count {
				if serr == nil {
					serr = fmt.Errorf("segment %06d content does not match its footer", id)
				}
				l.warnf("sealed segment %06d failed verification on open: %v", id, serr)
				l.quarantineSegLocked(seg, false)
			} else {
				l.warnf("adopted sealed segment %06d not yet in the index (seal was interrupted)", id)
				l.adoptSealedLocked(seg, res.offsets)
			}
			indexDirty = true
			expected = fi.first + fi.count
			l.height = expected
			prevID, havePrev = id, true

		case errors.Is(ferr, errNoFooter):
			// Footer-less: the active segment. It is always the highest id
			// — seals create the successor file before updating the index,
			// so an unsealed file below another segment cannot occur.
			if !isLast {
				return fmt.Errorf("ledger: unsealed segment %06d below segment %06d — unrecoverable layout", id, ids[i+1])
			}
			var prevHash []byte
			if expected > l.base && len(l.missing) == 0 {
				if pb, err := l.readBlockLocked(expected - 1); err == nil {
					prevHash = block.HeaderHash(&pb.Header)
				}
			} else if expected == l.base && l.baseHash != nil {
				prevHash = l.baseHash
			}
			res, serr := scanSegment(l.fs, path, true, expected, prevHash, l.warnf)
			if serr != nil {
				return serr
			}
			seg := newSegment(l.fs, l.dir, id)
			seg.first = expected
			seg.count = res.blocks
			seg.dataLen = res.dataLen
			for _, e := range res.offsets {
				e.seg = seg
				l.entries = append(l.entries, e)
			}
			l.segs = append(l.segs, seg)
			l.active = seg
			expected += res.blocks
			l.height = expected
			if res.blocks > 0 {
				l.lastHash = res.lastHash
				l.commitHash = res.commitHash
			}
			prevID, havePrev = id, true

		default:
			return fmt.Errorf("ledger: segment %06d unreadable: %w", id, ferr)
		}
	}

	// Trailing missing ranges have no live successor, so their blocks
	// cannot be chain-verified against anything — roll the height back to
	// the start of the trailing gap; delivery recommits those blocks.
	l.rollBackTrailingMissingLocked()
	if l.active != nil && l.active.first > l.height {
		// The rollback swallowed everything between the empty active
		// segment and the new height; re-anchor the active segment there.
		l.active.first = l.height
	}

	// Ensure an active segment exists (fresh dir, or the last segment is
	// sealed because a rotation crashed before creating its successor).
	if l.active == nil {
		nextID := uint64(0)
		if len(ids) > 0 {
			nextID = ids[len(ids)-1] + 1
		}
		if err := l.startActiveLocked(nextID); err != nil {
			return err
		}
		indexDirty = indexDirty || len(l.segs) > 1
	} else {
		f, err := l.fs.OpenFile(l.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open active segment for append: %w", err)
		}
		l.file = f
		// Rebuild the running checksum of the active record region so a
		// later seal does not have to re-read the file.
		if l.segSum, err = sumFile(l.fs, l.active.path, l.active.dataLen); err != nil {
			return fmt.Errorf("rehash active segment: %w", err)
		}
	}

	// Derive the tail hashes when the active segment did not provide them.
	if l.lastHash == nil && l.height > l.base {
		pb, err := l.readBlockLocked(l.height - 1)
		if err != nil {
			return fmt.Errorf("ledger: read tail block %d: %w", l.height-1, err)
		}
		l.lastHash = block.HeaderHash(&pb.Header)
		l.commitHash = pb.Metadata.CommitHash
	}
	if l.height == l.base && l.baseHash != nil {
		l.lastHash = l.baseHash
		l.commitHash = l.baseCommitHash
	}

	// An oversized active segment (legacy monolithic file, or a crash
	// before the seal) rotates immediately so the budget holds.
	if l.active.dataLen >= l.segBudget {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		indexDirty = false // rotation persisted the index
	}

	if indexDirty {
		if err := l.persistIndexLocked(); err != nil {
			return err
		}
	}
	return nil
}

// noteGapLocked checks segment continuity at a sealed segment boundary.
// first > expected means the segments covering [expected, first) were
// quarantined (renamed aside) by an earlier process: the gap is re-derived
// as a missing range. first < expected is an overlap and unrecoverable.
// It must be called with l.mu held.
func (l *Ledger) noteGapLocked(expected *uint64, first uint64, prevID uint64, havePrev bool, id uint64) error {
	switch {
	case first == *expected:
		return nil
	case first < *expected:
		return fmt.Errorf("ledger: segment %06d overlaps (starts at %d, expected %d)", id, first, *expected)
	}
	gapID := uint64(0)
	if havePrev {
		gapID = prevID + 1
	}
	if gapID >= id {
		return fmt.Errorf("ledger: gap before segment %06d has no free segment id", id)
	}
	count := first - *expected
	l.warnf("blocks [%d,%d) missing on open (quarantined segment awaiting restore)", *expected, first)
	l.missing = append(l.missing, Range{First: *expected, Count: count, segID: gapID})
	for n := uint64(0); n < count; n++ {
		l.entries = append(l.entries, entry{})
	}
	*expected = first
	return nil
}

// rollBackTrailingMissingLocked truncates the logical height past any
// missing range that touches the tail (no live blocks after it). Such a
// range cannot anchor a restore (there is no successor block to close the
// hash chain against), so its blocks are simply recommitted via delivery.
// It must be called with l.mu held.
func (l *Ledger) rollBackTrailingMissingLocked() {
	for len(l.missing) > 0 {
		last := l.missing[len(l.missing)-1]
		if last.First+last.Count != l.height {
			return
		}
		// Only roll back if the range truly is the tail: no live segment
		// holds blocks >= the range start (an empty active segment above
		// the gap anchors nothing and does not count).
		tail := true
		for _, s := range l.segs {
			if s.count > 0 && s.first >= last.First {
				tail = false
				break
			}
		}
		if !tail {
			return
		}
		l.warnf("quarantined tail blocks [%d,%d) dropped; height rolls back to %d for redelivery",
			last.First, last.First+last.Count, last.First)
		l.missing = l.missing[:len(l.missing)-1]
		l.entries = l.entries[:last.First-l.base]
		l.height = last.First
		l.lastHash = nil
		l.commitHash = nil
	}
}

// startActiveLocked creates a fresh active segment file with the given id
// and installs the writer state. It must be called with l.mu held.
func (l *Ledger) startActiveLocked(id uint64) error {
	seg := newSegment(l.fs, l.dir, id)
	seg.first = l.height
	f, err := l.fs.OpenFile(seg.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("create segment file: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close() // bmaclint:allow errdiscard (teardown after dir-sync failure)
		return err
	}
	l.file = f
	l.segSum = 0
	l.segs = append(l.segs, seg)
	l.active = seg
	return nil
}

// rotateLocked seals the active segment — footer checksum, fsync, index
// persistence — and rotates to a fresh one. Each step is individually
// crash-safe: footer before successor file before index, and openLocked
// converges from a crash between any pair. It must be called with l.mu
// held.
func (l *Ledger) rotateLocked() error {
	act := l.active
	if err := sealFile(l.file, act.first, act.count, act.dataLen, l.segSum); err != nil {
		return err
	}
	l.file = nil
	act.sealed = true
	act.sum = l.segSum
	l.bytesWritten += footerSize
	l.sealed++

	if err := l.startActiveLocked(act.id + 1); err != nil {
		return err
	}
	return l.persistIndexLocked()
}

// adoptSealedLocked installs a verified sealed segment and its block
// entries. It must be called with l.mu held; segments arrive in ascending
// block order during open.
func (l *Ledger) adoptSealedLocked(seg *segment, offsets []entry) {
	for _, e := range offsets {
		e.seg = seg
		l.entries = append(l.entries, e)
	}
	l.segs = append(l.segs, seg)
}
