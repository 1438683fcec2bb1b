// Package delivery implements the orderer's non-blocking block delivery
// service: the fan-out layer between block creation and the peers
// (paper §3.5's dual path — the same orderer feeds both software-only
// peers over Gossip and BMac peers over the custom protocol).
//
// The service replaces the lock-step broadcaster (one mutex across every
// peer's socket write, whole fan-out aborted by the first error) with one
// independent pipeline per peer:
//
//   - Publish appends the block to a bounded retained window and returns
//     immediately — the orderer never blocks on a peer.
//   - Each peer owns a writer goroutine with a cursor into the window, so
//     a slow or dead peer delays only itself (slow-peer isolation).
//   - A peer that falls off the window's tail is handled by policy:
//     Disconnect kills the pipe (the default — a blockchain peer must not
//     silently miss blocks), DropBlocks skips the lost range and counts it
//     (for lossy monitoring taps and overload experiments).
//   - With a History source configured (normally the orderer's own block
//     ledger, via LedgerSource), a peer that fell off the window is not
//     disconnected: the lost range is streamed from history until the
//     cursor is back inside the window — the catch-up path a crashed and
//     restarted peer takes after Rewind moves its cursor to the height it
//     recovered to.
//   - A peer whose transport fails can be redialed; after reconnecting it
//     catches up from the retained window (or history) at its own pace.
//
// Per-peer lag, bytes, drops, redials, catch-up counts and errors are
// exposed through Stats, feeding cluster.Run's isolation,
// tail-latency and churn reports.
package delivery

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/ledger"
	"bmac/internal/telemetry"
)

// Item is one published block plus its delivery sequence number. The
// marshaled form is computed at most once and shared by every peer that
// needs it (the Gossip path), so fan-out to N peers pays one Marshal.
type Item struct {
	Seq   uint64
	Block *block.Block

	once sync.Once
	raw  []byte
}

// Marshaled returns the marshaled block, computing it on first use.
func (it *Item) Marshaled() []byte {
	it.once.Do(func() { it.raw = block.Marshal(it.Block) })
	return it.raw
}

// Transport writes one block to one peer. Implementations must be safe
// for use by a single writer goroutine (the pipe serializes sends).
type Transport interface {
	// Send delivers one item and reports the wire bytes written.
	Send(it *Item) (int, error)
	// Close releases the underlying connection.
	Close() error
}

// Policy selects what happens to a peer that falls off the retained
// window (its backlog exceeded the window size). Neither policy blocks
// Publish: a peer's overrun is always the peer's problem, never the
// orderer's.
type Policy int

// Overrun policies.
const (
	// Disconnect records ErrOverrun and kills the peer's pipe: a
	// validating peer must never silently skip blocks.
	Disconnect Policy = iota
	// DropBlocks skips the blocks that fell off the window, counts them
	// in PeerStats.Dropped, and keeps delivering from the oldest retained
	// block. For monitoring taps and overload experiments.
	DropBlocks
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Disconnect:
		return "disconnect"
	case DropBlocks:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors reported through PeerStats.Err.
var (
	// ErrOverrun reports a Disconnect-policy peer that fell off the
	// retained window.
	ErrOverrun = errors.New("delivery: peer overran the retained block window")
	// ErrClosed reports an operation on a closed service.
	ErrClosed = errors.New("delivery: service closed")
)

// Source serves historical blocks that have fallen off the retained
// window, keyed by delivery sequence number. Implementations must be safe
// for concurrent use (every pipe may fetch).
type Source interface {
	// BlockAt returns the block published with the given sequence number.
	BlockAt(seq uint64) (*block.Block, error)
}

// LedgerSource adapts a block ledger to a catch-up Source. Delivery
// sequence numbers must coincide with ledger block numbers, which holds
// whenever every published block is appended to the ledger first (as the
// cluster orderer does) and publication started from sequence 0.
func LedgerSource(l *ledger.Ledger) Source { return ledgerSource{l} }

type ledgerSource struct{ l *ledger.Ledger }

func (s ledgerSource) BlockAt(seq uint64) (*block.Block, error) { return s.l.Get(seq) }

// Options parameterize the service.
type Options struct {
	// Window is the number of recent blocks retained for catch-up; it is
	// also each peer's maximum backlog. 0 means 256.
	Window int
	// History, when set, serves blocks that fell off the window: instead
	// of being disconnected, an overrun Disconnect-policy peer streams the
	// lost range from History (counted in PeerStats.CaughtUp). DropBlocks
	// peers still drop — their policy asks for it.
	History Source
	// Registry, when non-nil, exports each pipe's PeerStats counters
	// (delivery_*_total{peer=...}) and its lag (delivery_lag_blocks) as
	// scrape-time reads of the pipe; the send path keeps no second copy.
	// A later service registering the same peer name on the same registry
	// replaces the reads. Nil: telemetry off.
	Registry *telemetry.Registry
}

// PeerOptions parameterize one registered peer.
type PeerOptions struct {
	// Policy selects the overrun policy (default Disconnect).
	Policy Policy
	// Dial, when set, is used to reconnect after a transport send error;
	// the peer then catches up from the retained window.
	Dial func() (Transport, error)
	// MaxRedials bounds consecutive reconnect attempts per send error
	// (default 3; ignored without Dial).
	MaxRedials int
	// RedialWait is the pause before the first reconnect attempt (default
	// 10ms). Successive attempts back off exponentially from it.
	RedialWait time.Duration
	// RedialMaxWait caps the exponential backoff between reconnect
	// attempts (default 200ms, or RedialWait when that is larger). Large
	// redial budgets — the partition-survival configuration — would
	// otherwise spin the dialer hot against a dead link.
	RedialMaxWait time.Duration
}

// PeerStats is a point-in-time snapshot of one peer's pipeline.
type PeerStats struct {
	Name      string
	Connected bool   // pipe alive and transport usable
	Blocks    int64  // blocks delivered
	Bytes     int64  // wire bytes delivered
	Lag       uint64 // published blocks not yet delivered to this peer
	Dropped   uint64 // blocks skipped by the DropBlocks policy
	CaughtUp  uint64 // blocks streamed from the History source
	Redials   int    // successful reconnects
	SendErrs  int    // send attempts that errored
	Err       error  // terminal pipe error, if any
}

// Service is the delivery fan-out: a retained block window plus one pipe
// per registered peer, with an optional history source behind the window.
type Service struct {
	window  int
	history Source
	reg     *telemetry.Registry

	mu     sync.Mutex
	ring   []*Item          // guarded by mu; ring[seq%window], valid for [base, height)
	base   uint64           // guarded by mu; oldest retained sequence
	height uint64           // guarded by mu; next sequence to publish
	peers  map[string]*pipe // guarded by mu
	closed bool             // guarded by mu
}

// NewService creates an empty delivery service.
func NewService(opts Options) *Service {
	w := opts.Window
	if w <= 0 {
		w = 256
	}
	return &Service{
		window:  w,
		history: opts.History,
		reg:     opts.Registry,
		ring:    make([]*Item, w),
		peers:   make(map[string]*pipe),
	}
}

// Window reports the retained-window size.
func (s *Service) Window() int { return s.window }

// Floor reports the lowest sequence number any live pipe still needs —
// the window base when every pipe has caught up past it. An archive
// backing this service (delivery.LedgerSource over a peer ledger) must not
// prune at or above Floor, or an in-flight catch-up loses its source
// mid-stream (the prune-vs-rewind race: the pipe fails with a
// ledger.ErrPruned-wrapped error instead of streaming).
func (s *Service) Floor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := s.base
	for _, p := range s.peers {
		p.mu.Lock()
		if p.alive && p.next < floor {
			floor = p.next
		}
		p.mu.Unlock()
	}
	return floor
}

// Height reports the number of blocks published.
func (s *Service) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.height
}

// Register adds a peer and starts its writer goroutine. The peer first
// receives the oldest retained block (usually the next Publish when the
// service is fresh). Registering a duplicate name is an error.
func (s *Service) Register(name string, tr Transport, opts PeerOptions) error {
	if opts.MaxRedials == 0 {
		opts.MaxRedials = 3
	}
	if opts.RedialWait == 0 {
		opts.RedialWait = 10 * time.Millisecond
	}
	if opts.RedialMaxWait == 0 {
		opts.RedialMaxWait = 200 * time.Millisecond
	}
	if opts.RedialMaxWait < opts.RedialWait {
		opts.RedialMaxWait = opts.RedialWait
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, dup := s.peers[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("delivery: peer %q already registered", name)
	}
	p := &pipe{
		name:   name,
		tr:     tr,
		opts:   opts,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		next:   s.base,
		alive:  true,
	}
	s.peers[name] = p
	s.mu.Unlock()
	// Every series reads the pipe at scrape time; lag is derived from the
	// service height, never maintained on the send path.
	stat := func(base string, read func(PeerStats) int64) {
		s.reg.GaugeFunc(telemetry.Name(base, "peer", name),
			func() int64 { return read(p.snapshot(s.Height())) })
	}
	stat("delivery_blocks_total", func(st PeerStats) int64 { return st.Blocks })
	stat("delivery_bytes_total", func(st PeerStats) int64 { return st.Bytes })
	stat("delivery_dropped_total", func(st PeerStats) int64 { return int64(st.Dropped) })
	stat("delivery_catchup_blocks_total", func(st PeerStats) int64 { return int64(st.CaughtUp) })
	stat("delivery_redials_total", func(st PeerStats) int64 { return int64(st.Redials) })
	stat("delivery_send_errors_total", func(st PeerStats) int64 { return int64(st.SendErrs) })
	stat("delivery_lag_blocks", func(st PeerStats) int64 { return int64(st.Lag) })
	go p.run(s)
	return nil
}

// Publish appends the block to the window and wakes every pipe. It never
// blocks on a peer: one that falls behind the window is handled by its
// policy.
func (s *Service) Publish(b *block.Block) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	seq := s.height
	s.ring[seq%uint64(s.window)] = &Item{Seq: seq, Block: b}
	s.height = seq + 1
	if s.height-s.base > uint64(s.window) {
		s.base = s.height - uint64(s.window)
	}
	peers := make([]*pipe, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.wake()
	}
	return nil
}

// fetch returns the item at seq. gap > 0 reports that seq fell off the
// window's tail (gap blocks were lost); have=false with gap=0 means the
// peer is fully caught up.
func (s *Service) fetch(seq uint64) (it *Item, gap uint64, have bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.height {
		return nil, 0, false
	}
	if seq < s.base {
		return nil, s.base - seq, false
	}
	return s.ring[seq%uint64(s.window)], 0, true
}

// Rewind moves a peer's cursor back to seq, so delivery resumes from an
// earlier position — the deliver protocol's "start from block N" request a
// peer makes after recovering from a crash at height N. Blocks below the
// retained window are served from the History source. Rewinding forward
// is a no-op. A pipe that already died (redial budget exhausted, overrun)
// cannot resume; Rewind reports its terminal error instead of pretending
// catch-up is underway.
func (s *Service) Rewind(name string, seq uint64) error {
	s.mu.Lock()
	p, ok := s.peers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("delivery: rewind: unknown peer %q", name)
	}
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return fmt.Errorf("delivery: rewind %q: pipe already failed: %w", name, err)
	}
	if seq < p.next {
		p.next = seq
		p.rewinds++ // invalidate any in-flight send's cursor advance
	}
	p.mu.Unlock()
	p.wake()
	return nil
}

// Stats snapshots every peer, sorted by name.
func (s *Service) Stats() []PeerStats {
	s.mu.Lock()
	height := s.height
	peers := make([]*pipe, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	out := make([]PeerStats, 0, len(peers))
	for _, p := range peers {
		out = append(out, p.snapshot(height))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Err joins the terminal errors of every dead pipe (nil when all pipes
// are healthy).
func (s *Service) Err() error {
	var errs []error
	for _, st := range s.Stats() {
		if st.Err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", st.Name, st.Err))
		}
	}
	return errors.Join(errs...)
}

// Drain waits until every live peer has delivered all published blocks,
// or the timeout expires (reporting the laggards).
func (s *Service) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var lagging []string
		for _, st := range s.Stats() {
			if st.Err == nil && st.Connected && st.Lag > 0 {
				lagging = append(lagging, fmt.Sprintf("%s(lag %d)", st.Name, st.Lag))
			}
		}
		if len(lagging) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("delivery: drain timed out after %v: %v", timeout, lagging)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops every pipe, waits for in-flight sends, and closes the
// transports. Registered peers' terminal errors remain readable through
// Stats/Err.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*pipe, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		close(p.stop)
	}
	var firstErr error
	for _, p := range peers {
		<-p.done
		if err := p.closeTransport(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// pipe is one peer's delivery pipeline: a cursor into the service window
// plus the writer goroutine draining it.
type pipe struct {
	name   string
	opts   PeerOptions
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	tr       Transport // guarded by mu
	next     uint64    // guarded by mu; next sequence to deliver
	rewinds  uint64    // guarded by mu; generation counter bumped by Rewind
	alive    bool      // guarded by mu
	blocks   int64     // guarded by mu
	bytes    int64     // guarded by mu
	dropped  uint64    // guarded by mu
	caughtUp uint64    // guarded by mu
	redials  int       // guarded by mu
	sendErrs int       // guarded by mu
	err      error     // guarded by mu
	trClosed bool      // guarded by mu
}

func (p *pipe) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

func (p *pipe) snapshot(height uint64) PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	lag := uint64(0)
	if p.alive && height > p.next {
		lag = height - p.next
	}
	return PeerStats{
		Name:      p.name,
		Connected: p.alive,
		Blocks:    p.blocks,
		Bytes:     p.bytes,
		Lag:       lag,
		Dropped:   p.dropped,
		CaughtUp:  p.caughtUp,
		Redials:   p.redials,
		SendErrs:  p.sendErrs,
		Err:       p.err,
	}
}

// fail records the terminal error and marks the pipe dead.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.alive = false
	p.mu.Unlock()
}

func (p *pipe) closeTransport() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trClosed || p.tr == nil {
		return nil
	}
	p.trClosed = true
	return p.tr.Close()
}

// run is the writer goroutine: it drains the window from the pipe's
// cursor, applying the overrun policy and the redial loop. One goroutine
// per peer — a stalled send here stalls only this peer.
func (p *pipe) run(s *Service) {
	defer close(p.done)
	for {
		p.mu.Lock()
		next, gen := p.next, p.rewinds
		p.mu.Unlock()
		it, gap, have := s.fetch(next)
		fromHistory := false
		if gap > 0 {
			switch {
			case s.history != nil && p.opts.Policy != DropBlocks:
				// Stream the lost range from history until the cursor is
				// back inside the window. The source error stays wrapped so
				// callers can distinguish a pruned archive (the requested
				// range is gone for good — rewinding lower cannot help) from
				// a quarantined one (the range will come back once the
				// source restores it).
				b, err := s.history.BlockAt(next)
				if err != nil {
					p.fail(fmt.Errorf("%w: %d blocks behind, catch-up failed: %w", ErrOverrun, gap, err))
					p.closeTransport() // bmaclint:allow errdiscard (redial path: stale transport, error is expected)
					return
				}
				it = &Item{Seq: next, Block: b}
				fromHistory = true
			case p.opts.Policy == Disconnect:
				p.fail(fmt.Errorf("%w: %d blocks behind", ErrOverrun, gap))
				p.closeTransport() // bmaclint:allow errdiscard (redial path: stale transport, error is expected)
				return
			default:
				p.mu.Lock()
				p.dropped += gap
				p.next = next + gap
				p.mu.Unlock()
				continue
			}
		} else if !have {
			select {
			case <-p.notify:
				continue
			case <-p.stop:
				return
			}
		}
		n, err := p.send(it)
		if err != nil {
			if !p.redial(err) {
				return
			}
			continue // retry the same cursor over the new transport
		}
		p.mu.Lock()
		p.blocks++
		p.bytes += int64(n)
		if fromHistory {
			p.caughtUp++
		}
		// A Rewind that landed while this send was in flight moved the
		// cursor back on purpose; advancing past it here would silently
		// skip the rewound range.
		if gen == p.rewinds && it.Seq+1 > p.next {
			p.next = it.Seq + 1
		}
		p.mu.Unlock()
	}
}

func (p *pipe) send(it *Item) (int, error) {
	p.mu.Lock()
	tr := p.tr
	p.mu.Unlock()
	return tr.Send(it)
}

// redial closes the failed transport and tries to reconnect; it reports
// whether the pipe should keep running. Attempts pace out exponentially
// from RedialWait up to the RedialMaxWait cap, so a pipe configured to
// survive a long partition (large MaxRedials) idles against the dead link
// instead of hammering it.
func (p *pipe) redial(sendErr error) bool {
	p.mu.Lock()
	p.sendErrs++
	p.mu.Unlock()
	p.closeTransport() // bmaclint:allow errdiscard (shutdown: transport may already be closed)
	if p.opts.Dial == nil {
		p.fail(sendErr)
		return false
	}
	wait := p.opts.RedialWait
	for attempt := 0; attempt < p.opts.MaxRedials; attempt++ {
		select {
		case <-time.After(wait):
		case <-p.stop:
			p.fail(sendErr)
			return false
		}
		if wait < p.opts.RedialMaxWait {
			if wait *= 2; wait > p.opts.RedialMaxWait {
				wait = p.opts.RedialMaxWait
			}
		}
		tr, err := p.opts.Dial()
		if err != nil {
			continue
		}
		p.mu.Lock()
		p.tr = tr
		p.trClosed = false
		p.redials++
		p.mu.Unlock()
		return true
	}
	p.fail(fmt.Errorf("delivery: redial failed after %d attempts: %w", p.opts.MaxRedials, sendErr))
	return false
}
