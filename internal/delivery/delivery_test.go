package delivery

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/ledger"
)

func makeBlock(t testing.TB, num uint64) *block.Block {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	orderer, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(num, nil, nil, orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mockTransport records delivered sequence numbers and can be programmed
// to fail or dawdle.
type mockTransport struct {
	mu       sync.Mutex
	seqs     []uint64
	failNext int
	delay    time.Duration
	closed   bool
}

func (m *mockTransport) Send(it *Item) (int, error) {
	m.mu.Lock()
	delay := m.delay
	if m.failNext > 0 {
		m.failNext--
		m.mu.Unlock()
		return 0, errors.New("mock send failure")
	}
	m.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	m.mu.Lock()
	m.seqs = append(m.seqs, it.Seq)
	m.mu.Unlock()
	return len(it.Marshaled()), nil
}

func (m *mockTransport) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *mockTransport) delivered() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.seqs...)
}

func publishN(t *testing.T, s *Service, n int) {
	t.Helper()
	b := makeBlock(t, 0)
	for i := 0; i < n; i++ {
		// Reuse the signed block, renumbering: delivery does not inspect
		// header numbers, only its own sequence.
		bi := *b
		bi.Header.Number = uint64(i)
		if err := s.Publish(&bi); err != nil {
			t.Fatal(err)
		}
	}
}

func wantInOrder(t *testing.T, name string, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("%s delivered %d blocks, want %d", name, len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("%s got seq %d at position %d", name, s, i)
		}
	}
}

func TestFanOutAllPeersInOrder(t *testing.T) {
	s := NewService(Options{Window: 16})
	defer s.Close()
	trs := make([]*mockTransport, 3)
	for i := range trs {
		trs[i] = &mockTransport{}
		if err := s.Register(fmt.Sprintf("p%d", i), trs[i], PeerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	publishN(t, s, 8)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		wantInOrder(t, fmt.Sprintf("p%d", i), tr.delivered(), 8)
	}
	for _, st := range s.Stats() {
		if st.Blocks != 8 || st.Bytes == 0 || st.Lag != 0 || st.Err != nil {
			t.Errorf("stats %+v", st)
		}
	}
}

// TestFailedPeerDoesNotStarveOthers is the regression for the lock-step
// broadcaster bug: one dead peer must not prevent delivery to the healthy
// ones, and its error must be recorded rather than aborting the fan-out.
func TestFailedPeerDoesNotStarveOthers(t *testing.T) {
	s := NewService(Options{Window: 16})
	defer s.Close()
	bad := &mockTransport{failNext: 1 << 30}
	good1, good2 := &mockTransport{}, &mockTransport{}
	for name, tr := range map[string]Transport{"bad": bad, "good1": good1, "good2": good2} {
		if err := s.Register(name, tr, PeerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	publishN(t, s, 6)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantInOrder(t, "good1", good1.delivered(), 6)
	wantInOrder(t, "good2", good2.delivered(), 6)
	if err := s.Err(); err == nil {
		t.Fatal("dead peer error not surfaced")
	}
	for _, st := range s.Stats() {
		if st.Name == "bad" {
			if st.Err == nil || st.Connected {
				t.Errorf("bad peer stats %+v", st)
			}
			if !bad.closed {
				t.Error("bad transport not closed")
			}
		}
	}
}

// TestSlowPeerIsolation: a dawdling peer must not delay the fast ones.
func TestSlowPeerIsolation(t *testing.T) {
	s := NewService(Options{Window: 64})
	defer s.Close()
	slow := &mockTransport{delay: 30 * time.Millisecond}
	fast := &mockTransport{}
	if err := s.Register("slow", slow, PeerOptions{Policy: DropBlocks}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("fast", fast, PeerOptions{}); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 10)

	// The fast peer finishes long before the slow one could (10 blocks x
	// 30ms = 300ms minimum for the slow pipe).
	deadline := time.Now().Add(2 * time.Second)
	for len(fast.delivered()) < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("fast peer starved: %d/10 after 2s", len(fast.delivered()))
		}
		time.Sleep(time.Millisecond)
	}
	var slowLag uint64
	for _, st := range s.Stats() {
		if st.Name == "slow" {
			slowLag = st.Lag + st.Dropped
		}
	}
	if slowLag == 0 {
		t.Error("slow peer shows no backlog while fast peer finished")
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantInOrder(t, "fast", fast.delivered(), 10)
}

// TestDropPolicySkipsAndCounts: a peer that falls off the window under
// the DropBlocks policy skips the lost range, keeps order, and counts
// the drops.
func TestDropPolicySkipsAndCounts(t *testing.T) {
	s := NewService(Options{Window: 4})
	defer s.Close()
	slow := &mockTransport{delay: 20 * time.Millisecond}
	if err := s.Register("slow", slow, PeerOptions{Policy: DropBlocks}); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 20)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seqs := slow.delivered()
	var st PeerStats
	for _, x := range s.Stats() {
		st = x
	}
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded: %+v", st)
	}
	if int64(len(seqs)) != st.Blocks || uint64(len(seqs))+st.Dropped != 20 {
		t.Fatalf("delivered %d + dropped %d != 20", len(seqs), st.Dropped)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("reordered delivery: %v", seqs)
		}
	}
}

// TestDisconnectPolicyOverrun: the default policy kills a peer that
// overruns the window instead of letting it skip blocks.
func TestDisconnectPolicyOverrun(t *testing.T) {
	s := NewService(Options{Window: 2})
	defer s.Close()
	slow := &mockTransport{delay: 50 * time.Millisecond}
	if err := s.Register("slow", slow, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 10)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()[0]
		if st.Err != nil {
			if !errors.Is(st.Err, ErrOverrun) {
				t.Fatalf("err = %v, want ErrOverrun", st.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overrun never detected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnectCatchUp: after a send error the pipe redials and resumes
// from the retained window without losing or reordering blocks.
func TestReconnectCatchUp(t *testing.T) {
	s := NewService(Options{Window: 32})
	defer s.Close()
	tr := &mockTransport{failNext: 1}
	err := s.Register("p", tr, PeerOptions{
		Dial:       func() (Transport, error) { return tr, nil },
		RedialWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 5)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantInOrder(t, "p", tr.delivered(), 5)
	st := s.Stats()[0]
	if st.Redials != 1 || st.SendErrs != 1 || st.Err != nil {
		t.Errorf("stats %+v, want 1 redial / 1 send error", st)
	}
}

func TestPublishAfterClose(t *testing.T) {
	s := NewService(Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(makeBlock(t, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := s.Register("p", &mockTransport{}, PeerOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("register err = %v, want ErrClosed", err)
	}
}

func TestDuplicateRegister(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	if err := s.Register("p", &mockTransport{}, PeerOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("p", &mockTransport{}, PeerOptions{}); err == nil {
		t.Error("duplicate register accepted")
	}
}

// TestGossipTransportEndToEnd runs the service over real TCP gossip
// framing, including a mid-stream reconnect + catch-up.
func TestGossipTransportEndToEnd(t *testing.T) {
	ln, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	s := NewService(Options{Window: 32})
	defer s.Close()
	tr, err := DialGossip(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tcp", tr, PeerOptions{
		Dial:       GossipDialer(ln.Addr()),
		RedialWait: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	publishN(t, s, 3)
	for i := 0; i < 3; i++ {
		b := <-ln.Blocks()
		if b.Header.Number != uint64(i) {
			t.Fatalf("block %d arrived as %d", i, b.Header.Number)
		}
	}

	// Kill the connection under the pipe: the next publish must fail the
	// send, redial, and catch up from the window.
	tr.Close()
	publishN(t, s, 6) // seqs 3..5 new on top of re-published 0..2
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()[0]
	if st.Redials == 0 {
		t.Errorf("no redial recorded: %+v", st)
	}
	if st.Err != nil {
		t.Errorf("pipe error: %v", st.Err)
	}
}

// TestConcurrentPublishAndStats exercises the locking under -race.
func TestConcurrentPublishAndStats(t *testing.T) {
	s := NewService(Options{Window: 8})
	defer s.Close()
	tr := &mockTransport{}
	if err := s.Register("p", tr, PeerOptions{Policy: DropBlocks}); err != nil {
		t.Fatal(err)
	}
	b := makeBlock(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				bi := *b
				if err := s.Publish(&bi); err != nil {
					t.Error(err)
					return
				}
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()[0]
	if st.Blocks+int64(st.Dropped) != 200 {
		t.Errorf("blocks %d + dropped %d != 200", st.Blocks, st.Dropped)
	}
}

// makeChain builds n blocks chained by previous hash and commits them to
// a fresh ledger (the orderer's ledger of the catch-up path).
func makeChain(t *testing.T, n int) (*ledger.Ledger, []*block.Block) {
	t.Helper()
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	orderer, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(t.TempDir(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	var blocks []*block.Block
	var prev []byte
	for i := 0; i < n; i++ {
		b, err := block.NewBlock(uint64(i), prev, nil, orderer)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		if _, err := led.Commit(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	return led, blocks
}

func waitDelivered(t *testing.T, tr *mockTransport, n int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		seqs := tr.delivered()
		if len(seqs) >= n {
			return seqs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d blocks delivered: %v", len(seqs), n, seqs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLedgerCatchUpAfterRewind is the recovery delivery path: ten blocks
// are published through a window of four, a peer registers late (cursor at
// the window base) and then — like a restarted peer resuming from its
// recovered height — rewinds to sequence 0. The range below the window
// must stream from the ledger source, in order, without disconnecting.
func TestLedgerCatchUpAfterRewind(t *testing.T) {
	led, blocks := makeChain(t, 10)
	s := NewService(Options{Window: 4, History: LedgerSource(led)})
	defer s.Close()
	for _, b := range blocks {
		if err := s.Publish(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := &mockTransport{}
	if err := s.Register("p", tr, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr, 4) // window tail: 6..9

	if err := s.Rewind("p", 0); err != nil {
		t.Fatal(err)
	}
	seqs := waitDelivered(t, tr, 14)
	want := []uint64{6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", seqs, want)
		}
	}
	st := s.Stats()[0]
	if st.Err != nil {
		t.Fatalf("pipe error: %v", st.Err)
	}
	if st.CaughtUp != 6 {
		t.Errorf("CaughtUp = %d, want 6 (blocks 0..5 from the ledger)", st.CaughtUp)
	}
	if st.Lag != 0 {
		t.Errorf("lag = %d after catch-up", st.Lag)
	}
	if err := s.Rewind("ghost", 0); err == nil {
		t.Error("rewind of unknown peer accepted")
	}
}

// TestDropPolicyIgnoresHistory pins that a DropBlocks peer keeps its
// semantics even when a history source exists: drops are what its policy
// asks for.
func TestDropPolicyIgnoresHistory(t *testing.T) {
	led, blocks := makeChain(t, 8)
	s := NewService(Options{Window: 2, History: LedgerSource(led)})
	defer s.Close()
	for _, b := range blocks {
		if err := s.Publish(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := &mockTransport{}
	if err := s.Register("p", tr, PeerOptions{Policy: DropBlocks}); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr, 2)
	if err := s.Rewind("p", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()[0]
		if st.Dropped >= 6 && st.CaughtUp == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop peer stats after rewind: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCatchUpFailureDisconnects: a Disconnect peer that falls behind a
// history source missing the needed block dies with ErrOverrun context
// instead of looping.
func TestCatchUpFailureDisconnects(t *testing.T) {
	led, _ := makeChain(t, 3) // ledger holds 0..2 only
	s := NewService(Options{Window: 2, History: LedgerSource(led)})
	defer s.Close()
	// Publish 8 blocks; seq 3.. are not in the ledger (history is stale).
	for i := 0; i < 8; i++ {
		b := makeBlock(t, uint64(i))
		if err := s.Publish(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := &mockTransport{}
	if err := s.Register("p", tr, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr, 2)
	if err := s.Rewind("p", 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()[0]
		if st.Err != nil {
			if !errors.Is(st.Err, ErrOverrun) {
				t.Fatalf("err = %v, want ErrOverrun", st.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale history never surfaced as a pipe error")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRewindDeadPipeReportsError pins the review fix: rewinding a pipe
// whose redial budget is exhausted must surface the terminal error, not
// pretend catch-up is underway.
func TestRewindDeadPipeReportsError(t *testing.T) {
	s := NewService(Options{Window: 4})
	defer s.Close()
	tr := &mockTransport{failNext: 100}
	if err := s.Register("p", tr, PeerOptions{Policy: Disconnect, RedialWait: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(makeBlock(t, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats()[0].Err == nil {
		if time.Now().After(deadline) {
			t.Fatal("pipe never died")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Rewind("p", 0); err == nil {
		t.Fatal("rewind of a dead pipe reported success")
	}
}

// TestCatchUpFromPrunedArchiveSurfacesErrPruned pins the prune-vs-rewind
// race diagnosis: when a peer rewinds below the archive's prune floor, the
// pipe must die with an error that wraps ledger.ErrPruned — the cluster
// uses errors.Is on PeerStats.Err to tell "range gone for good, restart
// from a checkpoint" apart from a transient source failure.
func TestCatchUpFromPrunedArchiveSurfacesErrPruned(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	orderer, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments so blocks 0..7 spread over several sealed segments.
	led, err := ledger.Open(t.TempDir(), ledger.Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	s := NewService(Options{Window: 2, History: LedgerSource(led)})
	defer s.Close()
	var prev []byte
	for i := 0; i < 8; i++ {
		b, err := block.NewBlock(uint64(i), prev, nil, orderer)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		if _, err := led.Commit(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(b); err != nil {
			t.Fatal(err)
		}
	}
	// Prune everything a height-6 checkpoint covers.
	if _, err := led.Prune(6); err != nil {
		t.Fatal(err)
	}
	if led.Base() == 0 {
		t.Fatal("prune removed nothing; segments never sealed")
	}

	tr := &mockTransport{}
	if err := s.Register("p", tr, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr, 2)
	if err := s.Rewind("p", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()[0]
		if st.Err != nil {
			if !errors.Is(st.Err, ErrOverrun) {
				t.Fatalf("err = %v, want ErrOverrun wrap", st.Err)
			}
			if !errors.Is(st.Err, ledger.ErrPruned) {
				t.Fatalf("err = %v does not surface ledger.ErrPruned", st.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rewind below the prune floor never failed the pipe")
		}
		time.Sleep(time.Millisecond)
	}

	// A rewind at or above the floor still streams fine.
	tr2 := &mockTransport{}
	if err := s.Register("p2", tr2, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr2, 2)
	if err := s.Rewind("p2", led.Base()); err != nil {
		t.Fatal(err)
	}
	seqs := waitDelivered(t, tr2, 2+int(8-led.Base()))
	if st := s.Stats(); len(st) > 1 {
		for _, p := range st {
			if p.Name == "p2" && p.Err != nil {
				t.Fatalf("rewind at the floor failed: %v (delivered %v)", p.Err, seqs)
			}
		}
	}
}

// TestFloorTracksSlowestLivePipe pins Service.Floor, the prune guard: with
// no peers it is the window base; a live pipe mid-catch-up drags it down to
// its cursor; a dead pipe stops counting.
func TestFloorTracksSlowestLivePipe(t *testing.T) {
	led, blocks := makeChain(t, 10)
	s := NewService(Options{Window: 4, History: LedgerSource(led)})
	defer s.Close()
	for _, b := range blocks {
		if err := s.Publish(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Floor(); got != 6 {
		t.Fatalf("Floor with no peers = %d, want window base 6", got)
	}
	// A transport that blocks after the first send holds the cursor low.
	tr := &mockTransport{delay: 50 * time.Millisecond}
	if err := s.Register("p", tr, PeerOptions{Policy: Disconnect}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rewind("p", 0); err != nil {
		t.Fatal(err)
	}
	sawLow := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f := s.Floor(); f < 6 {
			sawLow = true
		}
		if len(tr.delivered()) >= 10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawLow {
		t.Error("Floor never dropped below the window base during catch-up")
	}
	waitDelivered(t, tr, 10)
	if got := s.Floor(); got < 6 {
		t.Errorf("Floor = %d after catch-up, want window base", got)
	}
}
