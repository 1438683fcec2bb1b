package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bmac/internal/block"
	"bmac/internal/fsutil"
)

// A segment is one on-disk blockfile. The highest-id segment is active
// (append target, no footer); all others are sealed: their record region
// is immutable and covered by the footer checksum, which is what makes
// quarantine decidable — a sealed segment either matches its checksum or
// it does not.
//
// Record layout (both states): repeated [len u64 BE | marshaled block].
// Sealed segments append a fixed-size footer after the last record:
//
//	magic "BMACSEGF" [8] | first u64 | count u64 | dataLen u64 | sha256 [32]
//
// where sha256 covers bytes [0, dataLen) — the record region only.
type segment struct {
	fs      fsutil.FS
	id      uint64
	path    string
	first   uint64 // first block number in the segment
	count   uint64 // blocks in the segment
	dataLen int64  // record-region bytes (excludes footer)
	sealed  bool
	sum     [sha256Size]byte // record-region checksum; valid when sealed

	// readers pools read-only handles for historical reads. Handles are
	// lazily opened, reused across reads, and closed when the pool channel
	// is full or the segment is retired (quarantine/prune/close). The
	// channel itself is the synchronization — no lock is held during I/O.
	readers chan fsutil.File
	retired chan struct{} // closed when the segment is quarantined/pruned
}

const footerSize = 8 + 8 + 8 + 8 + sha256Size

var footerMagic = [8]byte{'B', 'M', 'A', 'C', 'S', 'E', 'G', 'F'}

// errNoFooter reports a segment file without a (complete, well-formed)
// footer — an active or torn-seal segment.
var errNoFooter = errors.New("ledger: segment has no footer")

// errRetired reports a read against a segment that was quarantined or
// pruned between index lookup and I/O.
var errRetired = errors.New("ledger: segment retired")

func newSegment(fsys fsutil.FS, dir string, id uint64) *segment {
	return &segment{
		fs:      fsys,
		id:      id,
		path:    segPath(dir, id),
		readers: make(chan fsutil.File, maxReaders),
		retired: make(chan struct{}),
	}
}

// footerBytes encodes a footer for the given record region.
func footerBytes(first, count uint64, dataLen int64, sum [sha256Size]byte) []byte {
	buf := make([]byte, footerSize)
	copy(buf, footerMagic[:])
	binary.BigEndian.PutUint64(buf[8:], first)
	binary.BigEndian.PutUint64(buf[16:], count)
	binary.BigEndian.PutUint64(buf[24:], uint64(dataLen))
	copy(buf[32:], sum[:])
	return buf
}

// sealFile seals a segment file whose record region is [0, dataLen): it
// appends the footer, fsyncs and closes f. Both the rotation of the active
// segment and a finished restore seal through it, so the footer is durable
// before the segment is indexed or renamed into place.
func sealFile(f fsutil.File, first, count uint64, dataLen int64, sum [sha256Size]byte) error {
	if _, err := f.Write(footerBytes(first, count, dataLen, sum)); err != nil {
		return fmt.Errorf("write segment footer: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync sealed segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close sealed segment: %w", err)
	}
	return nil
}

// footerInfo is a decoded segment footer.
type footerInfo struct {
	first   uint64
	count   uint64
	dataLen int64
	sum     [sha256Size]byte
}

// parseFooter decodes the trailing footerSize bytes of a segment file.
// The caller supplies the file size so dataLen consistency can be checked.
func parseFooter(tail []byte, fileSize int64) (footerInfo, error) {
	var fi footerInfo
	if len(tail) != footerSize || [8]byte(tail[:8]) != footerMagic {
		return fi, errNoFooter
	}
	fi.first = binary.BigEndian.Uint64(tail[8:])
	fi.count = binary.BigEndian.Uint64(tail[16:])
	fi.dataLen = int64(binary.BigEndian.Uint64(tail[24:]))
	copy(fi.sum[:], tail[32:])
	if fi.dataLen < 0 || fi.dataLen+footerSize != fileSize || fi.count == 0 {
		return fi, fmt.Errorf("%w: inconsistent footer (dataLen %d, file %d, count %d)",
			errNoFooter, fi.dataLen, fileSize, fi.count)
	}
	return fi, nil
}

// readFooter reads and decodes the footer of a segment file on disk.
func readFooter(fsys fsutil.FS, path string) (footerInfo, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return footerInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return footerInfo{}, err
	}
	if st.Size() < footerSize {
		return footerInfo{}, errNoFooter
	}
	tail := make([]byte, footerSize)
	if _, err := f.ReadAt(tail, st.Size()-footerSize); err != nil {
		return footerInfo{}, err
	}
	return parseFooter(tail, st.Size())
}

// isSealed reports whether the segment is sealed (immutable, checksummed).
// Sealing happens under the ledger mutex but reads of this flag race with
// it harmlessly: the flag only ever transitions false→true, and a reader
// that sees the stale false merely skips the quarantine probe once.
func (s *segment) isSealed() bool { return s.sealed }

// getReader returns a pooled read-only handle, opening one if the pool is
// empty. Returns errRetired if the segment was quarantined or pruned.
func (s *segment) getReader() (fsutil.File, error) {
	select {
	case f := <-s.readers:
		return f, nil
	default:
	}
	select {
	case <-s.retired:
		return nil, errRetired
	default:
	}
	f, err := s.fs.OpenFile(s.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("open segment for read: %w", err)
	}
	return f, nil
}

// putReader returns a handle to the pool, closing it if the pool is full
// or the segment has been retired.
func (s *segment) putReader(f fsutil.File) {
	select {
	case <-s.retired:
		f.Close() // bmaclint:allow errdiscard (read-only handle on a retired segment)
		return
	default:
	}
	select {
	case s.readers <- f:
	default:
		f.Close() // bmaclint:allow errdiscard (read-only handle beyond pool capacity)
	}
}

// drainReaders retires the segment: marks it so concurrent readers stop
// recycling handles and closes every pooled handle.
func (s *segment) drainReaders() {
	select {
	case <-s.retired:
	default:
		close(s.retired)
	}
	for {
		select {
		case f := <-s.readers:
			f.Close() // bmaclint:allow errdiscard (read-only handle on a retired segment)
		default:
			return
		}
	}
}

// readBlock reads and decodes the record described by e through the
// segment's reader pool. It runs without the ledger mutex; the record
// region it touches is immutable once indexed (the active segment only
// grows, sealed segments never change).
func (s *segment) readBlock(e entry) (*block.Block, error) {
	f, err := s.getReader()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, e.length)
	_, err = f.ReadAt(buf, e.offset)
	s.putReader(f)
	if err != nil {
		return nil, fmt.Errorf("segment %06d read: %w", s.id, err)
	}
	n := binary.BigEndian.Uint64(buf[:8])
	if n != uint64(e.length-8) {
		return nil, fmt.Errorf("segment %06d: record length mismatch (prefix %d, indexed %d)", s.id, n, e.length-8)
	}
	// buf is freshly allocated per read, so the aliasing Unmarshal is safe.
	b, err := block.Unmarshal(buf[8:])
	if err != nil {
		return nil, fmt.Errorf("segment %06d decode: %w", s.id, err)
	}
	return b, nil
}

// verifyChecksum re-reads the sealed segment's record region and compares
// it against the footer checksum. Sequential read of one segment file.
func (s *segment) verifyChecksum() error {
	f, err := s.fs.OpenFile(s.path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("segment %06d verify open: %w", s.id, err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.CopyN(h, f, s.dataLen); err != nil {
		return fmt.Errorf("segment %06d verify read: %w", s.id, err)
	}
	var sum [sha256Size]byte
	h.Sum(sum[:0])
	if sum != s.sum {
		return fmt.Errorf("segment %06d checksum mismatch", s.id)
	}
	return nil
}

// scanResult carries what a record scan of one segment file learned.
type scanResult struct {
	offsets []entry // seg filled in by the caller
	dataLen int64
	sum     [sha256Size]byte // running checksum of the record region
	footer  *footerInfo      // non-nil if a well-formed footer terminated the scan
	// tail truncation performed (active segments only)
	truncated bool
	// decoded state of the final record (active segments, decode=true)
	lastNum    uint64
	lastHash   []byte
	commitHash []byte
	blocks     uint64
}

// scanSegment walks a segment file's records. If decode is true every
// record is unmarshaled (the active-segment replay: numbers and the hash
// chain are validated and a torn or undecodable tail is truncated away,
// warning through warnf); if decode is false only length prefixes are
// walked (rebuilding offsets for a sealed segment) and any malformed tail
// is an error. expectFirst/expectPrev seed the validation chain.
func scanSegment(fsys fsutil.FS, path string, decode bool, expectFirst uint64, expectPrev []byte, warnf func(string, ...any)) (*scanResult, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open segment for scan: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat segment: %w", err)
	}
	size := st.Size()

	res := &scanResult{lastNum: expectFirst, lastHash: expectPrev}
	var offset int64
	var lenBuf [8]byte
	prevHash := expectPrev
	next := expectFirst

	truncate := func(at int64, why string) (*scanResult, error) {
		if !decode {
			return nil, fmt.Errorf("sealed segment scan: %s at offset %d", why, at)
		}
		warnf("truncating torn tail of %s at offset %d (%s); block height %d preserved",
			filepath.Base(path), at, why, next)
		if err := f.Truncate(at); err != nil {
			return nil, fmt.Errorf("truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("sync truncated segment: %w", err)
		}
		res.truncated = true
		res.dataLen = at
		return res, nil
	}

	h := sha256.New()
	for offset < size {
		remaining := size - offset
		if remaining < 8 {
			return truncate(offset, "partial length prefix")
		}
		if _, err := f.ReadAt(lenBuf[:], offset); err != nil {
			return nil, fmt.Errorf("read length prefix: %w", err)
		}
		// A footer magic in the length-prefix position terminates the
		// record region of a sealed segment.
		if lenBuf == footerMagic {
			if remaining == footerSize {
				tail := make([]byte, footerSize)
				if _, err := f.ReadAt(tail, offset); err != nil {
					return nil, fmt.Errorf("read footer: %w", err)
				}
				if fi, err := parseFooter(tail, size); err == nil {
					res.footer = &fi
					res.dataLen = offset
					h.Sum(res.sum[:0])
					return res, nil
				}
			}
			// Torn footer: the seal crashed mid-write. The record region
			// before it is intact; drop the partial footer so the segment
			// stays active and re-seals cleanly later.
			return truncate(offset, "torn segment footer")
		}
		recLen := binary.BigEndian.Uint64(lenBuf[:])
		if recLen == 0 {
			// A zero-length record at the very tail is a torn write; one
			// with bytes after it is mid-file corruption and fatal.
			if offset+8 == size {
				return truncate(offset, "zero-length record at tail")
			}
			return nil, fmt.Errorf("corrupt block record at offset %d: zero-length record mid-file", offset)
		}
		if recLen > uint64(remaining-8) {
			return truncate(offset, fmt.Sprintf("record length %d exceeds remaining %d bytes", recLen, remaining-8))
		}
		data := make([]byte, recLen)
		if _, err := f.ReadAt(data, offset+8); err != nil {
			return nil, fmt.Errorf("read record: %w", err)
		}
		if decode {
			b, err := block.UnmarshalCopy(data)
			if err != nil {
				if offset+8+int64(recLen) == size {
					return truncate(offset, fmt.Sprintf("undecodable final record: %v", err))
				}
				return nil, fmt.Errorf("corrupt block record at offset %d: %w", offset, err)
			}
			if b.Header.Number != next {
				return nil, fmt.Errorf("segment out of order at offset %d: got block %d, expected %d", offset, b.Header.Number, next)
			}
			// Chain check; skipped when there is no predecessor hash to
			// compare against (block 0, or a quarantined predecessor).
			if next > 0 && prevHash != nil && !bytes.Equal(b.Header.PreviousHash, prevHash) {
				return nil, fmt.Errorf("%w at block %d (replay)", ErrBrokenChain, next)
			}
			prevHash = block.HeaderHash(&b.Header)
			res.lastHash = prevHash
			res.commitHash = b.Metadata.CommitHash
		}
		h.Write(lenBuf[:])
		h.Write(data)
		res.offsets = append(res.offsets, entry{offset: offset, length: int64(8 + recLen)})
		offset += 8 + int64(recLen)
		next++
		res.blocks++
		res.lastNum = next
	}
	res.dataLen = offset
	h.Sum(res.sum[:0])
	return res, nil
}
