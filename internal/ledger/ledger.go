// Package ledger implements the disk-based block ledger as a segmented
// store: blocks append to rotating fixed-budget segment files, each sealed
// with a checksummed footer once full, with a persistent height→(segment,
// offset) index enabling O(1) random reads through a bounded reader pool.
//
// The paper identifies ledger commit as I/O-bound (bottleneck 4) and keeps
// it on the CPU, overlapped with hardware validation of the next block;
// internal/peer implements that overlap on top of this package. The
// segmented layout is the recovery/robustness layer on top of that:
//
//   - Torn-tail truncation is confined to the active (unsealed) segment —
//     a crash mid-append can only damage the file currently being written.
//   - A sealed segment whose footer checksum no longer matches its bytes
//     is quarantined (renamed aside, its block range recorded as missing)
//     instead of failing the peer; the missing range is re-fetched through
//     delivery catch-up and restored via Restore.
//   - Sealed segments fully covered by a durable state checkpoint become
//     prunable (Prune), bounding disk growth.
//   - Historical reads (Get) run through per-segment read-only handles and
//     a bounded reader semaphore, so a slow archive reader never stalls
//     Commit behind the writer mutex.
//
// A record is appended in two halves, so that most of it is written while
// the block's transactions are still validated (internal/pipeline does).
// Begin takes everything the commit does not decide: the checks (duplicate,
// gap, previous hash), then the length prefix — the record's final size,
// one validation flag per envelope and a 32-byte commit hash — the header
// and the data. Finish takes the rest: the commit hash, the metadata field,
// any fsync, the index entry and any seal. Commit is Begin then Finish. The
// bytes are the same either way, and a block is visible only once Finish
// returns. The disks a crash can leave stay prefix-closed: a crash between
// the halves leaves a prefix of one record at the end of the active
// segment, which Open truncates as the torn tail a crash inside one write
// leaves.
package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bmac/internal/block"
	"bmac/internal/fsutil"
	"bmac/internal/wire"
)

var (
	// ErrDuplicateBlock reports a commit of an already-committed number.
	ErrDuplicateBlock = errors.New("ledger: duplicate block")
	// ErrOutOfOrder reports a commit that skips a block number.
	ErrOutOfOrder = errors.New("ledger: out-of-order block")
	// ErrNotFound reports a read of an uncommitted block.
	ErrNotFound = errors.New("ledger: block not found")
	// ErrBrokenChain reports a previous-hash mismatch.
	ErrBrokenChain = errors.New("ledger: previous hash mismatch")
	// ErrPruned reports a read of a block whose segment was pruned after a
	// covering checkpoint. Distinct from ErrNotFound so catch-up sources can
	// surface "the archive no longer reaches that far back" precisely.
	ErrPruned = errors.New("ledger: block pruned")
	// ErrMissing reports a read of a block inside a quarantined segment's
	// range that has not been restored yet.
	ErrMissing = errors.New("ledger: block in quarantined segment")
	// ErrRestore reports a Restore call that does not extend the pending
	// missing range correctly (wrong number, broken hash linkage).
	ErrRestore = errors.New("ledger: restore rejected")
)

const (
	segPrefix = "blockfile_"
	indexFile = "index"

	// defaultSegmentBytes rotates segments at 64 MiB, Fabric's block file
	// ballpark; tests and experiments dial it down to force rotation.
	defaultSegmentBytes = 64 << 20
	// maxReaders bounds concurrent historical reads and per-segment pooled
	// read handles.
	maxReaders = 8
	// maxWarnings bounds the recovery-notice ring.
	maxWarnings = 64
	// writeBehindStep is how much of the active segment may be appended
	// before the kernel is asked to start writing it back (startWriteback).
	// Without the hint nothing pushes a segment's pages out before its seal,
	// and that one fsync, inside Commit, pays for all 64 MiB of them.
	writeBehindStep = 2 << 20
)

// startWriteback is the write-behind hint, a variable so that a test can
// see the ranges and fail the call. A hint, not a durability point: it
// starts writeback of a byte range of the active segment and waits for
// nothing, so what is durable when is still decided by SyncEachBlock, the
// seal's fsync and the index write alone.
var startWriteback = syncFileRangeWrite

// Options configure a Ledger.
type Options struct {
	// SegmentBytes is the byte budget of one segment file: the active
	// segment is sealed (footer + checksum) and rotated once its record
	// region reaches this size. 0 means 64 MiB.
	SegmentBytes int64
	// SyncEachBlock fsyncs after every block, modeling a durability-first
	// deployment. Off by default (Fabric also relies on buffered writes);
	// segment seals and index writes are always fsynced regardless.
	SyncEachBlock bool
	// FS is the file system every segment, footer, index and restore file
	// goes through; nil means fsutil.OS.
	FS fsutil.FS
}

// Range is a contiguous run of block numbers missing from the ledger
// because their segment was quarantined. Restore backfills it in order.
type Range struct {
	First uint64 // first missing block number
	Count uint64 // number of missing blocks

	segID uint64 // segment id the restored file will be written under
}

// Ledger is an append-only segmented block store. Safe for concurrent use;
// commits are strictly sequential by block number, as in Fabric, while
// historical reads fan out through per-segment read-only handles.
type Ledger struct {
	mu sync.Mutex

	fs        fsutil.FS
	dir       string
	segBudget int64
	syncEach  bool

	segs   []*segment  // guarded by mu; ascending block order, active last
	active *segment    // guarded by mu; the unsealed tail segment
	file   fsutil.File // guarded by mu; writer handle on the active segment

	// segSum is the running checksum of the active record region; only
	// the seal's footer reads it.
	segSum uint32 // guarded by mu

	pend pendingRecord // guarded by mu; the record Begin wrote and Finish completes

	base       uint64  // guarded by mu; first block number still indexed (post-prune)
	entries    []entry // guarded by mu; entries[n-base] locates block n
	height     uint64  // guarded by mu; next expected block number
	lastHash   []byte  // guarded by mu; header hash of the last block
	commitHash []byte  // guarded by mu; running commit hash chain
	// baseHash/baseCommitHash anchor the chain at the prune floor: the
	// header hash and commit hash of block base-1 (nil when base == 0).
	// Persisted in the index so a fully-pruned ledger can still chain.
	baseHash       []byte // guarded by mu
	baseCommitHash []byte // guarded by mu

	missing []Range       // guarded by mu; quarantined ranges awaiting Restore
	rst     *restoreState // guarded by mu; in-progress backfill

	readSem chan struct{} // bounds concurrent historical reads

	bytesWritten int64 // guarded by mu

	sealed      int64 // guarded by mu; segments sealed this session
	quarantined int64 // guarded by mu; segments quarantined this session
	restoredSeg int64 // guarded by mu; segments fully restored this session
	restoredBlk int64 // guarded by mu; blocks restored this session
	pruned      int64 // guarded by mu; segments pruned this session
	rebuilds    int64 // guarded by mu; index rebuilds (missing/corrupt index)

	warnings    []string // guarded by mu; bounded ring, oldest first
	warnDropped int64    // guarded by mu; notices dropped once the ring filled
}

// entry locates one block: its segment plus the record's offset and length
// (length includes the 8-byte prefix). A nil seg marks a quarantined hole.
type entry struct {
	seg    *segment
	offset int64
	length int64
}

// lookup status codes for lookupLocked.
const (
	lookupOK = iota
	lookupNotFound
	lookupPruned
	lookupMissing
)

// lookupLocked resolves a block number to its index entry. It is the
// hot-path index probe of every historical read; it must stay
// allocation-free so a catch-up storm of Get calls costs no GC pressure.
// It must be called with l.mu held.
//
// bmaclint:noalloc
func (l *Ledger) lookupLocked(num uint64) (entry, int) {
	if num >= l.height {
		return entry{}, lookupNotFound
	}
	if num < l.base {
		return entry{}, lookupPruned
	}
	e := l.entries[num-l.base]
	if e.seg == nil {
		return entry{}, lookupMissing
	}
	return e, lookupOK
}

// Open creates or opens a ledger in dir. Existing segments are adopted
// from the persistent index (full-checksum-verified) or rescanned when the
// index is missing or stale; a torn or undecodable final record in the
// active segment (a crash mid-append) is truncated away with a warning,
// and a checksum-failing sealed segment is quarantined — renamed aside and
// recorded as a missing range — instead of failing the open.
func Open(dir string, opts Options) (*Ledger, error) {
	l := &Ledger{
		fs:        opts.FS,
		dir:       dir,
		segBudget: opts.SegmentBytes,
		syncEach:  opts.SyncEachBlock,
		readSem:   make(chan struct{}, maxReaders),
	}
	if l.fs == nil {
		l.fs = fsutil.OS{}
	}
	if l.segBudget <= 0 {
		l.segBudget = defaultSegmentBytes
	}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger dir: %w", err)
	}
	l.mu.Lock()
	err := l.openLocked()
	l.mu.Unlock()
	if err != nil {
		l.Close() // bmaclint:allow errdiscard (teardown after a failed open; the open error is the one to report)
		return nil, err
	}
	return l, nil
}

// warnf records a recovery notice, readable via Warnings; nothing is
// printed. The ring is bounded: once full, the oldest notice is evicted and the
// eviction counted, so a pathologically torn ledger cannot grow memory
// without bound during replay. It must be called with l.mu held.
func (l *Ledger) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(l.warnings) >= maxWarnings {
		copy(l.warnings, l.warnings[1:])
		l.warnings[len(l.warnings)-1] = msg
		l.warnDropped++
	} else {
		l.warnings = append(l.warnings, msg)
	}
}

// Warnf records a recovery notice of the ledger's owner (a peer's checkpoint
// fallback, say) in the same bounded ring as the ledger's own.
func (l *Ledger) Warnf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.warnf(format, args...)
}

// Warnings returns the most recent recovery notices (e.g. a truncated torn
// tail write, a quarantined segment), oldest first. The ring is bounded at
// 64 notices; WarningsDropped counts evicted ones.
func (l *Ledger) Warnings() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.warnings...)
}

// WarningsDropped reports how many recovery notices were evicted from the
// bounded Warnings ring.
func (l *Ledger) WarningsDropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.warnDropped
}

// Height returns the next expected block number (== committed block count
// when starting from genesis 0).
func (l *Ledger) Height() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.height
}

// Base returns the first block number still held by the ledger; blocks
// below it were pruned after a covering checkpoint.
func (l *Ledger) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// LastCommitHash returns the commit hash of the most recent block.
func (l *Ledger) LastCommitHash() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.commitHash...)
}

// Sync fsyncs the active segment, so every block committed so far survives
// a power loss. A state checkpoint calls it first: state must never be
// durable ahead of the log it derives from.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("sync block file: %w", err)
	}
	return nil
}

// Commit appends a validated block: Begin and Finish in one call, under one
// hold of the writer mutex. The block's metadata must already carry its
// validation flags, however many; Commit computes and stores the commit
// hash chain value and enforces sequential numbering, duplicate detection
// (via the block index) and previous-hash chaining.
func (l *Ledger) Commit(b *block.Block) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.beginLocked(b, len(b.Metadata.ValidationFlags)); err != nil {
		return nil, err
	}
	return l.finishLocked(b)
}

// Begin writes the first half of block b's record, everything its commit
// does not decide: the length prefix, the header and the data. It runs the
// checks Commit runs (ErrDuplicateBlock, ErrOutOfOrder, ErrBrokenChain) and
// writes nothing if one fails. The size in the prefix is the record's once
// Finish has set one validation flag per envelope and the commit hash. A
// begun block is invisible (Get, Height, LastCommitHash) until Finish; a
// crash in between leaves a torn tail that Open truncates. One block may
// be begun at a time.
func (l *Ledger) Begin(b *block.Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.beginLocked(b, len(b.Envelopes))
}

// Finish completes the record Begin wrote for b, whose metadata now carries
// its validation flags: it computes the commit hash and writes the metadata
// field. The record is in the file (and, under SyncEachBlock, fsynced) when
// Finish returns, indexed, and folded into the segment checksum. Crossing
// the segment byte budget seals the active segment (footer checksum, fsync,
// persistent index update) and rotates to a fresh one. Finish errors, and
// changes nothing, unless b is the begun block and has as many flags as
// Begin sized its record for.
func (l *Ledger) Finish(b *block.Block) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finishLocked(b)
}

// pendingRecord is a record Begin wrote the body of and Finish completes.
type pendingRecord struct {
	num   uint64 // block number
	flags int    // validation flags the record is sized for
	size  int64  // the whole record, length prefix included; 0: none begun
	wrote int64  // bytes written so far
}

// beginLocked is Begin for a record sized for flags validation flags. It
// must be called with l.mu held.
//
// bmaclint:noalloc
func (l *Ledger) beginLocked(b *block.Block, flags int) error {
	num := b.Header.Number
	if l.pend.size > 0 {
		return fmt.Errorf("ledger: block %d begun while block %d is unfinished", num, l.pend.num)
	}
	if num < l.height {
		return fmt.Errorf("%w: %d", ErrDuplicateBlock, num)
	}
	if num != l.height {
		return fmt.Errorf("%w: got %d, expected %d", ErrOutOfOrder, num, l.height)
	}
	if l.height > 0 && !bytes.Equal(b.Header.PreviousHash, l.lastHash) {
		return fmt.Errorf("%w at block %d", ErrBrokenChain, num)
	}
	body := block.SizeBody(b)
	size := body + block.SizeCommitMetadata(&b.Metadata.Signature, flags)
	// Encoded into a pooled buffer, so steady-state commits allocate
	// nothing for the record.
	data := binary.BigEndian.AppendUint64(wire.GetBuf(8+body), uint64(size))
	data = block.AppendBody(data, b)
	err := l.appendLocked(data)
	wire.PutBuf(data)
	if err != nil {
		return err
	}
	l.pend = pendingRecord{num: num, flags: flags, size: int64(8 + size), wrote: int64(8 + body)}
	return nil
}

// finishLocked is Finish. It must be called with l.mu held.
func (l *Ledger) finishLocked(b *block.Block) ([]byte, error) {
	num, p := b.Header.Number, l.pend
	if p.size == 0 || p.num != num {
		return nil, fmt.Errorf("ledger: block %d finished but not begun", num)
	}
	if rest := int64(block.SizeCommitMetadata(&b.Metadata.Signature, len(b.Metadata.ValidationFlags))); rest != p.size-p.wrote {
		return nil, fmt.Errorf("ledger: block %d metadata is %d bytes with %d validation flags, begun for %d flags",
			num, rest, len(b.Metadata.ValidationFlags), p.flags)
	}
	b.Metadata.CommitHash = block.CommitHash(l.commitHash, b.Header.DataHash, b.Metadata.ValidationFlags)
	data := block.AppendMetadataField(wire.GetBuf(int(p.size-p.wrote)), &b.Metadata)
	err := l.appendLocked(data)
	wire.PutBuf(data)
	l.pend = pendingRecord{}
	if err != nil {
		return nil, err
	}
	if l.syncEach {
		if err := l.file.Sync(); err != nil {
			return nil, fmt.Errorf("sync block file: %w", err)
		}
	}

	l.entries = append(l.entries, entry{seg: l.active, offset: l.active.dataLen, length: p.size})
	l.active.dataLen += p.size
	l.active.count++
	l.bytesWritten += p.size
	l.height = num + 1
	l.lastHash = block.HeaderHash(&b.Header)
	l.commitHash = b.Metadata.CommitHash

	if l.active.dataLen >= l.segBudget {
		if err := l.rotateLocked(); err != nil {
			// The block itself is committed and readable; rotation failure
			// surfaces so the caller knows durability work is pending.
			return nil, err
		}
	}
	return l.commitHash, nil
}

// appendLocked writes p, the next bytes of the pending record, at the end
// of the active segment and folds them into the segment checksum. It must
// be called with l.mu held.
//
// bmaclint:noalloc
func (l *Ledger) appendLocked(p []byte) error {
	if _, err := l.file.Write(p); err != nil {
		return fmt.Errorf("write block: %w", err)
	}
	l.segSum = extendSum(l.segSum, p)
	// Each writeBehindStep boundary these bytes crossed: hand the steps
	// below it to the kernel now, so the seal's fsync finds at most one
	// step dirty.
	at := l.active.dataLen + l.pend.wrote
	if f, ok := l.file.(*os.File); ok {
		from := at / writeBehindStep * writeBehindStep
		if to := (at + int64(len(p))) / writeBehindStep * writeBehindStep; to > from {
			startWriteback(f, from, to-from) // bmaclint:allow errdiscard (a hint: if it fails the seal's fsync writes the range, as it did before)
		}
	}
	return nil
}

// appendRecord encodes b as one segment record — the 8-byte length prefix
// and the marshaled block — in one pooled buffer, written with one Write.
func appendRecord(b *block.Block) []byte {
	size := block.Size(b)
	data := binary.BigEndian.AppendUint64(wire.GetBuf(8+size), uint64(size))
	return block.AppendBlock(data, b)
}

// Get reads a committed block by number in O(1) via the block index. The
// read runs outside the writer mutex through a per-segment read-only
// handle, bounded by the reader semaphore, so concurrent catch-up streams
// cannot stall Commit. A read that fails inside a sealed segment triggers
// a checksum verification; on mismatch the segment is quarantined and the
// read reports ErrMissing.
func (l *Ledger) Get(num uint64) (*block.Block, error) {
	l.mu.Lock()
	e, st := l.lookupLocked(num)
	l.mu.Unlock()
	switch st {
	case lookupNotFound:
		return nil, fmt.Errorf("%w: %d", ErrNotFound, num)
	case lookupPruned:
		return nil, fmt.Errorf("%w: %d", ErrPruned, num)
	case lookupMissing:
		return nil, fmt.Errorf("%w: %d", ErrMissing, num)
	}

	l.readSem <- struct{}{}
	b, err := e.seg.readBlock(e)
	<-l.readSem
	if err == nil {
		return b, nil
	}
	// A sealed segment that fails a read is either bit-rot or a stale
	// handle race with quarantine/prune; verify the checksum and
	// quarantine on mismatch, then re-report the block's new status.
	if e.seg.isSealed() {
		l.mu.Lock()
		l.verifyAndQuarantineLocked(e.seg, err)
		_, st := l.lookupLocked(num)
		l.mu.Unlock()
		switch st {
		case lookupMissing:
			return nil, fmt.Errorf("%w: %d", ErrMissing, num)
		case lookupPruned:
			return nil, fmt.Errorf("%w: %d", ErrPruned, num)
		}
	}
	return nil, fmt.Errorf("read block %d: %w", num, err)
}

// readBlockLocked reads and decodes one block through the segment handle
// pool while l.mu is held — for rare maintenance paths (open, restore
// linkage checks) that need a block mid-mutation.
func (l *Ledger) readBlockLocked(num uint64) (*block.Block, error) {
	e, st := l.lookupLocked(num)
	switch st {
	case lookupNotFound:
		return nil, fmt.Errorf("%w: %d", ErrNotFound, num)
	case lookupPruned:
		return nil, fmt.Errorf("%w: %d", ErrPruned, num)
	case lookupMissing:
		return nil, fmt.Errorf("%w: %d", ErrMissing, num)
	}
	return e.seg.readBlock(e)
}

// BytesWritten reports the cumulative bytes appended this session.
func (l *Ledger) BytesWritten() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesWritten
}

// Stats is a point-in-time summary of the segmented store.
type Stats struct {
	Segments       int    // live segment files (incl. the active one)
	SealedSegments int    // live sealed segments
	Base           uint64 // first retained block number
	Height         uint64 // next expected block number
	MissingBlocks  uint64 // blocks inside quarantined, not-yet-restored ranges

	// Session counters.
	Sealed          int64 // segments sealed
	Quarantined     int64 // segments quarantined (checksum failure)
	RestoredSegs    int64 // quarantined segments fully restored
	RestoredBlocks  int64 // blocks backfilled via Restore
	Pruned          int64 // segments pruned after a covering checkpoint
	IndexRebuilds   int64 // opens that had to rescan segments for the index
	BytesWritten    int64
	WarningsDropped int64
}

// Stats snapshots the ledger's segment/robustness counters.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments:        len(l.segs),
		Base:            l.base,
		Height:          l.height,
		Sealed:          l.sealed,
		Quarantined:     l.quarantined,
		RestoredSegs:    l.restoredSeg,
		RestoredBlocks:  l.restoredBlk,
		Pruned:          l.pruned,
		IndexRebuilds:   l.rebuilds,
		BytesWritten:    l.bytesWritten,
		WarningsDropped: l.warnDropped,
	}
	for _, s2 := range l.segs {
		if s2.sealed {
			s.SealedSegments++
		}
	}
	for _, r := range l.missing {
		s.MissingBlocks += r.Count
	}
	return s
}

// MissingRanges returns the quarantined block ranges awaiting Restore,
// sorted by block number. Empty on a healthy ledger.
func (l *Ledger) MissingRanges() []Range {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Range(nil), l.missing...)
}

// Close closes the block files and reader pools.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.file != nil {
		err = l.file.Close()
		l.file = nil
	}
	for _, s := range l.segs {
		s.drainReaders()
	}
	l.abortRestoreLocked()
	return err
}

// segPath returns the data file path for a segment id.
func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d", segPrefix, id))
}

// SealedSegmentPaths lists the sealed segment files of a ledger directory
// (identified by a valid footer), ascending by id, without opening the
// ledger. Chaos tooling uses it to target on-disk corruption at sealed
// segments specifically.
func SealedSegmentPaths(dir string) ([]string, error) {
	ids, err := listSegmentIDs(fsutil.OS{}, dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, id := range ids {
		path := segPath(dir, id)
		if _, err := readFooter(fsutil.OS{}, path); err == nil {
			out = append(out, path)
		}
	}
	return out, nil
}
