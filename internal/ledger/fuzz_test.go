package ledger

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bmac/internal/fsutil"
)

// sealedLedger commits four blocks, each sealed in a segment of its own,
// into a fresh directory and returns it.
func sealedLedger(f *testing.F) string {
	dir := f.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		f.Fatal(err)
	}
	newFixture(f).chain(f, l, 4)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	return dir
}

// addDamaged seeds f with valid, valid cut to each length of cuts and
// valid with one byte flipped at each of flips.
func addDamaged(f *testing.F, valid []byte, cuts, flips []int) {
	f.Add(valid)
	for _, n := range cuts {
		f.Add(valid[:n])
	}
	for _, off := range flips {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}
}

// oneFile is an FS whose every ReadFile returns data.
type oneFile struct {
	fsutil.OS
	data []byte
}

func (o oneFile) ReadFile(string) ([]byte, error) { return o.data, nil }

// FuzzReadIndex puts arbitrary bytes behind the index magic and in front
// of a valid checksum trailer, so every input reaches the body decoder.
// loadIndex must never panic, every error must wrap ErrCorruptIndex, and
// an accepted index holds an entry for each block its segments count.
func FuzzReadIndex(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join(sealedLedger(f), indexFile))
	if err != nil {
		f.Fatal(err)
	}
	body := raw[len(indexMagic) : len(raw)-4]
	every := make([]int, len(body))
	for i := range every {
		every[i] = i
	}
	addDamaged(f, body, every, every)
	f.Fuzz(func(t *testing.T, b []byte) {
		buf := append(indexMagic[:len(indexMagic):len(indexMagic)], b...)
		buf = binary.BigEndian.AppendUint32(buf, extendSum(0, buf))
		idx, err := loadIndex(oneFile{data: buf}, "")
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("error %v does not wrap ErrCorruptIndex", err)
			}
			return
		}
		for id, is := range idx.segs {
			if uint64(len(is.offsets)) != is.count {
				t.Fatalf("segment %d: %d entries for %d blocks", id, len(is.offsets), is.count)
			}
		}
	})
}

// spread returns n offsets spread evenly over [lo, hi).
func spread(n, lo, hi int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = lo + k*(hi-lo)/n
	}
	return out
}

// FuzzSegmentFooter writes arbitrary bytes as a segment file, reads its
// footer and walks its records as Open does for a sealed segment and for
// the active one. None of it may panic; a footer that parses describes the
// file's size, and a scan that ends on a footer found the one readFooter
// reads.
func FuzzSegmentFooter(f *testing.F) {
	raw, err := os.ReadFile(segPath(sealedLedger(f), 1))
	if err != nil {
		f.Fatal(err)
	}
	// Every cut and flip in the length prefix and in the footer, and a fixed
	// number of each spread evenly over the record between them. The
	// record's size differs from run to run; the seeds' number, and so
	// their names, must not.
	var edges []int
	for i := range raw {
		if i < 8 || i >= len(raw)-footerSize {
			edges = append(edges, i)
		}
	}
	addDamaged(f, raw, append(spread(2048, 8, len(raw)-footerSize), edges...), append(spread(256, 8, len(raw)-footerSize), edges...))
	dir := f.TempDir()
	path := filepath.Join(dir, "blockfile_000000")
	warnf := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		fi, ferr := readFooter(fsutil.OS{}, path)
		if ferr == nil && fi.dataLen+footerSize != int64(len(b)) {
			t.Fatalf("footer claims %d record bytes in a %d-byte file", fi.dataLen, len(b))
		}
		res, err := scanSegment(fsutil.OS{}, path, false, 0, nil, warnf)
		if err == nil && res.footer != nil && (ferr != nil || *res.footer != fi) {
			t.Fatalf("scan ended on footer %+v, readFooter read %+v (%v)", *res.footer, fi, ferr)
		}
		scanSegment(fsutil.OS{}, path, true, 0, nil, warnf) // bmaclint:allow errdiscard (only a panic fails: any error is an answer)
	})
}
