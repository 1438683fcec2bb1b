package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/delivery"
	"bmac/internal/fsutil"
	"bmac/internal/gossip"
	"bmac/internal/ledger"
)

// ErrSevered is returned by severed transports and dialers while their
// Switch is open — the in-process stand-in for a network partition.
var ErrSevered = errors.New("chaos: link severed")

// Switch is the control point of a simulated network partition: severing
// it makes every attached transport and dialer fail until it is healed.
// It is safe for concurrent use.
type Switch struct {
	severed atomic.Bool
	heals   atomic.Int64
}

// Sever opens the switch: attached links start failing.
func (s *Switch) Sever() { s.severed.Store(true) }

// Heal closes the switch and counts the heal (idempotent heals of an
// already-closed switch are not counted).
func (s *Switch) Heal() {
	if s.severed.CompareAndSwap(true, false) {
		s.heals.Add(1)
	}
}

// Severed reports whether the link is currently down.
func (s *Switch) Severed() bool { return s.severed.Load() }

// Heals returns how many times the partition has healed.
func (s *Switch) Heals() int64 { return s.heals.Load() }

// Severable wraps a delivery transport so that sends fail with ErrSevered
// while sw is severed. The send failure tears the pipe down to its redial
// path, where the severed dialer keeps it in (backed-off) retry until the
// partition heals.
func Severable(tr delivery.Transport, sw *Switch) delivery.Transport {
	return &severable{tr: tr, sw: sw}
}

type severable struct {
	tr delivery.Transport
	sw *Switch
}

// Send implements delivery.Transport.
func (s *severable) Send(it *delivery.Item) (int, error) {
	if s.sw.Severed() {
		return 0, ErrSevered
	}
	return s.tr.Send(it)
}

// Close implements delivery.Transport.
func (s *severable) Close() error { return s.tr.Close() }

// SeverableDialer wraps a delivery dial function so redials fail while sw
// is severed and produce severable transports once it heals.
func SeverableDialer(dial func() (delivery.Transport, error), sw *Switch) func() (delivery.Transport, error) {
	return func() (delivery.Transport, error) {
		if sw.Severed() {
			return nil, ErrSevered
		}
		tr, err := dial()
		if err != nil {
			return nil, err
		}
		return Severable(tr, sw), nil
	}
}

// Corrupter injects bit-flips into the gossip wire: roughly every Nth
// frame sent through one of its transports is corrupted. The cadence
// drifts after each flip (the period cycles through N..N+2) so it cannot
// phase-lock onto a redelivery loop — with a fixed period, a rewind
// round whose frame count is a multiple of N corrupts the same block
// every round, turning a transient fault into a permanent one that
// exhausts peer.Follow's redelivery budget. The frame counter lives
// on the Corrupter, not the transport, so the cadence (and the stats)
// survive the redials its own corruption provokes. The corrupted frame is
// a copy — the delivery item's cached marshaled bytes are shared across
// all peers and must never be mutated. The receiver's decode rejection
// closes the connection, so the sender observes a send error and redials;
// recovery is peer.Follow's gap check and the delivery service's rewind,
// which this fault exists to exercise.
type Corrupter struct {
	every int

	mu     sync.Mutex
	frames int64 // guarded by mu
	flips  int64 // guarded by mu
	nextAt int64 // guarded by mu; frame number of the next flip
}

// NewCorrupter corrupts roughly every Nth frame (every <= 1 corrupts all
// frames — pass a sensible cadence).
func NewCorrupter(every int) *Corrupter {
	if every < 1 {
		every = 1
	}
	return &Corrupter{every: every, nextAt: int64(every)}
}

// corrupt counts one sent frame and reports whether it should be
// bit-flipped, advancing the drifting cadence.
func (c *Corrupter) corrupt() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames++
	if c.frames < c.nextAt {
		return false
	}
	c.flips++
	c.nextAt = c.frames + int64(c.every)
	if c.every > 1 {
		c.nextAt += c.flips % 3
	}
	return true
}

// Dialer returns a PeerOptions dial function producing corrupting gossip
// transports to addr.
func (c *Corrupter) Dialer(addr string) func() (delivery.Transport, error) {
	return func() (delivery.Transport, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("chaos dial %q: %w", addr, err)
		}
		return &corruptingTransport{c: c, conn: conn, writeTimeout: 10 * time.Second}, nil
	}
}

// Stats reports frames sent through the corrupter's transports and how
// many of them were corrupted.
func (c *Corrupter) Stats() (frames, flips int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames, c.flips
}

type corruptingTransport struct {
	c            *Corrupter
	conn         net.Conn
	writeTimeout time.Duration
}

// Send implements delivery.Transport.
func (t *corruptingTransport) Send(it *delivery.Item) (int, error) {
	raw := it.Marshaled()
	if t.c.corrupt() {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[len(bad)/2] ^= 0x40
		raw = bad
	}
	if t.writeTimeout > 0 {
		if err := t.conn.SetWriteDeadline(time.Now().Add(t.writeTimeout)); err != nil {
			return 0, err
		}
	}
	return gossip.WriteRaw(t.conn, raw)
}

// Close implements delivery.Transport.
func (t *corruptingTransport) Close() error { return t.conn.Close() }

// DiskFault is a slow, flaky disk under the ledger and checkpoint writers:
// an fsutil.FS over the operating system's whose every file write pays a
// fixed latency, and whose every Nth write the device refuses once, before
// any byte lands, and re-issues after a second latency. It is a device that
// retries, so the bytes land exactly once and the fault shows as a slow
// disk, never as data loss. Safe for concurrent use.
type DiskFault struct {
	fsutil.OS
	// Latency is paid by every write (the slow half of slow-disk), and
	// once more by a refused one.
	Latency time.Duration
	// FailEvery makes every Nth write refused once (0 disables refusals).
	FailEvery int

	writes atomic.Int64
	faults atomic.Int64
}

// OpenFile implements fsutil.FS; the file's writes go through the fault.
func (d *DiskFault) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	return d.wrap(d.OS.OpenFile(name, flag, perm))
}

// CreateTemp implements fsutil.FS; the file's writes go through the fault.
func (d *DiskFault) CreateTemp(dir, pattern string) (fsutil.File, error) {
	return d.wrap(d.OS.CreateTemp(dir, pattern))
}

// wrap routes the writes of a just-opened file through the fault.
func (d *DiskFault) wrap(f fsutil.File, err error) (fsutil.File, error) {
	if err != nil {
		return nil, err
	}
	return faultyFile{f, d}, nil
}

// faultyFile is a file on a DiskFault.
type faultyFile struct {
	fsutil.File
	d *DiskFault
}

// Write pays the latency, and a refused write the re-issue's, then writes p.
func (f faultyFile) Write(p []byte) (int, error) {
	time.Sleep(f.d.Latency)
	if n := f.d.writes.Add(1); f.d.FailEvery > 0 && n%int64(f.d.FailEvery) == 0 {
		f.d.faults.Add(1)
		time.Sleep(f.d.Latency)
	}
	return f.File.Write(p)
}

// Stats reports total writes seen and how many of them were refused once.
func (d *DiskFault) Stats() (writes, faults int64) {
	return d.writes.Load(), d.faults.Load()
}

// CorruptSealedSegment flips one byte in the record region of the oldest
// sealed segment file in a ledger directory — the bit-rot fault the
// quarantine path exists for. It must run while the ledger is closed (a
// churned-down peer); the corruption is discovered either by the open-time
// checksum sweep or by the first Get that touches the segment. Returns the
// path of the corrupted file, or an error when the directory holds no
// sealed segment.
func CorruptSealedSegment(dir string) (string, error) {
	paths, err := ledger.SealedSegmentPaths(dir)
	if err != nil {
		return "", fmt.Errorf("chaos: list sealed segments: %w", err)
	}
	if len(paths) == 0 {
		return "", errors.New("chaos: no sealed segment to corrupt")
	}
	path := paths[0]
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return "", fmt.Errorf("chaos: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", fmt.Errorf("chaos: stat segment: %w", err)
	}
	// Flip a byte in the middle of the record region, clear of the 64-byte
	// footer, so the footer parses but its checksum no longer matches.
	off := (fi.Size() - 64) / 2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return "", fmt.Errorf("chaos: read segment: %w", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		return "", fmt.Errorf("chaos: write segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return "", fmt.Errorf("chaos: sync segment: %w", err)
	}
	return path, nil
}
