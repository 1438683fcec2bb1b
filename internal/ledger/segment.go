package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// Sealed segments append a fixed-size 36-byte footer after the last record:
//
//	magic "BMACSEG2" [8] | first u64 | count u64 | dataLen u64 | crc32c u32
//
// where crc32c covers bytes [0, dataLen) — the record region only.
//
// The sum is CRC-32C (Castagnoli), the one checksum of this package: the
// footer, the index's per-segment sum column and the index trailer all use
// extendSum. It only has to catch rot, and for that it gives up nothing
// against the SHA-256 of the parent format ("BMACSEGF", a 64-byte footer),
// which was just as unkeyed and so never stopped anyone able to rewrite the
// file. CRC-32C catches every error burst of up to 32 bits and any other
// corruption with probability 1 − 2⁻³². What a block says is pinned by the
// protocol's own hashes (DataHash, the header and commit-hash chains),
// which Restore re-checks; nothing outside this package reads the sum.
// hash/crc32 computes it with the SSE4.2 CRC32 instruction on amd64 and
// the CRC32 instructions on arm64.
//
// A sealed segment in the parent format is refused at Open
// (errParentFormat), never truncated as a torn tail or quarantined as rot.
type segment struct {
	fs      fsutil.FS
	id      uint64
	path    string
	first   uint64 // first block number in the segment
	count   uint64 // blocks in the segment
	dataLen int64  // record-region bytes (excludes footer)
	sealed  bool
	sum     uint32 // record-region checksum; valid when sealed

	// readers pools read-only handles for historical reads. Handles are
	// lazily opened, reused across reads, and closed when the pool channel
	// is full or the segment is retired (quarantine/prune/close). The
	// channel itself is the synchronization — no lock is held during I/O.
	readers chan fsutil.File
	retired chan struct{} // closed when the segment is quarantined/pruned
}

const footerSize = 8 + 8 + 8 + 8 + 4

var footerMagic = [8]byte{'B', 'M', 'A', 'C', 'S', 'E', 'G', '2'}

// The parent format's footer: the same fields with a 32-byte SHA-256.
const parentFooterSize = 8 + 8 + 8 + 8 + 32

var parentFooterMagic = [8]byte{'B', 'M', 'A', 'C', 'S', 'E', 'G', 'F'}

// castagnoli is the CRC-32C table behind extendSum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extendSum extends a segment or index checksum (CRC-32C, starting from 0)
// over p.
func extendSum(sum uint32, p []byte) uint32 { return crc32.Update(sum, castagnoli, p) }

// sumWriter is an io.Writer that extends its checksum over what it is fed.
type sumWriter uint32

func (w *sumWriter) Write(p []byte) (int, error) {
	*w = sumWriter(extendSum(uint32(*w), p))
	return len(p), nil
}

// sumFile returns the checksum of the first n bytes of the file at path.
func sumFile(fsys fsutil.FS, path string, n int64) (uint32, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var w sumWriter
	if _, err := io.CopyN(&w, f, n); err != nil {
		return 0, err
	}
	return uint32(w), nil
}

// errNoFooter reports a segment file without a (complete, well-formed)
// footer — an active or torn-seal segment.
var errNoFooter = errors.New("ledger: segment has no footer")

// errParentFormat reports a segment written in the parent format, whose
// footer this build does not read.
var errParentFormat = errors.New(`ledger: segment in the parent format ("BMACSEGF" footer with a SHA-256 sum); this build reads "BMACSEG2" segments with a CRC-32C sum`)

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
func footerBytes(first, count uint64, dataLen int64, sum uint32) []byte {
	buf := make([]byte, footerSize)
	copy(buf, footerMagic[:])
	binary.BigEndian.PutUint64(buf[8:], first)
	binary.BigEndian.PutUint64(buf[16:], count)
	binary.BigEndian.PutUint64(buf[24:], uint64(dataLen))
	binary.BigEndian.PutUint32(buf[32:], sum)
	return buf
}

// sealFile seals a segment file whose record region is [0, dataLen): it
// appends the footer, fsyncs and closes f. Both the rotation of the active
// segment and a finished restore seal through it, so the footer is durable
// before the segment is indexed or renamed into place.
func sealFile(f fsutil.File, first, count uint64, dataLen int64, sum uint32) error {
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
	sum     uint32
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
	fi.sum = binary.BigEndian.Uint32(tail[32:])
	if fi.dataLen < 0 || fi.dataLen+footerSize != fileSize || fi.count == 0 {
		return fi, fmt.Errorf("%w: inconsistent footer (dataLen %d, file %d, count %d)",
			errNoFooter, fi.dataLen, fileSize, fi.count)
	}
	return fi, nil
}

// readFooter reads and decodes the footer of a segment file on disk. A
// file that ends in a complete parent-format footer is errParentFormat.
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
	size := st.Size()
	n := min(size, parentFooterSize)
	if n < footerSize {
		return footerInfo{}, errNoFooter
	}
	tail := make([]byte, n)
	if _, err := f.ReadAt(tail, size-n); err != nil {
		return footerInfo{}, err
	}
	if n == parentFooterSize && [8]byte(tail) == parentFooterMagic && binary.BigEndian.Uint64(tail[24:])+parentFooterSize == uint64(size) {
		return footerInfo{}, errParentFormat
	}
	return parseFooter(tail[n-footerSize:], size)
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

// verifyChecksum re-reads the sealed segment's record region and footer
// and compares both against what the segment was sealed with: a flipped
// bit in either is a mismatch. Sequential read of one segment file.
func (s *segment) verifyChecksum() error {
	sum, err := sumFile(s.fs, s.path, s.dataLen)
	if err != nil {
		return fmt.Errorf("segment %06d verify: %w", s.id, err)
	}
	fi, err := readFooter(s.fs, s.path)
	if errors.Is(err, errParentFormat) {
		return fmt.Errorf("segment %06d: %w", s.id, err)
	}
	if err != nil || sum != s.sum || fi != (footerInfo{s.first, s.count, s.dataLen, s.sum}) {
		return fmt.Errorf("segment %06d checksum mismatch", s.id)
	}
	return nil
}

// scanResult carries what a record scan of one segment file learned.
type scanResult struct {
	offsets []entry // seg filled in by the caller
	dataLen int64
	sum     uint32      // running checksum of the record region
	footer  *footerInfo // non-nil if a well-formed footer terminated the scan
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
					return res, nil
				}
			}
			// Torn footer: the seal crashed mid-write. The record region
			// before it is intact; drop the partial footer so the segment
			// stays active and re-seals cleanly later.
			return truncate(offset, "torn segment footer")
		}
		// The parent format's footer, whole or torn, is never a torn tail
		// of this format: the file is refused, not cut.
		if lenBuf == parentFooterMagic {
			return nil, fmt.Errorf("%s at offset %d: %w", filepath.Base(path), offset, errParentFormat)
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
		res.sum = extendSum(extendSum(res.sum, lenBuf[:]), data)
		res.offsets = append(res.offsets, entry{offset: offset, length: int64(8 + recLen)})
		offset += 8 + int64(recLen)
		next++
		res.blocks++
		res.lastNum = next
	}
	res.dataLen = offset
	return res, nil
}
