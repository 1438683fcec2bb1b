package orderer

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/raft"
)

type fixture struct {
	net     *identity.Network
	client  *identity.Identity
	ordID   *identity.Identity
	cluster *raft.Cluster
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	ordID, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	c := raft.NewCluster(1, 20*time.Millisecond)
	if c.WaitForLeader(3*time.Second) == nil {
		t.Fatal("raft leader never elected")
	}
	t.Cleanup(c.Stop)
	return &fixture{net: n, client: client, ordID: ordID, cluster: c}
}

func (f *fixture) envelope(t *testing.T) *block.Envelope {
	t.Helper()
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: f.client, Chaincode: "cc", Channel: "ch",
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// collector gathers delivered blocks.
type collector struct {
	mu     sync.Mutex
	blocks []*block.Block
	ch     chan *block.Block
}

func newCollector() *collector {
	return &collector{ch: make(chan *block.Block, 64)}
}

func (c *collector) deliver(b *block.Block) error {
	c.mu.Lock()
	c.blocks = append(c.blocks, b)
	c.mu.Unlock()
	c.ch <- b
	return nil
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []*block.Block {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		if len(c.blocks) >= n {
			out := append([]*block.Block(nil), c.blocks...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			c.mu.Lock()
			got := len(c.blocks)
			c.mu.Unlock()
			t.Fatalf("timed out with %d/%d blocks", got, n)
		}
	}
}

// gate is a delivery hook that holds every block until it is opened. With
// the gate shut nothing leaves the orderer, so whatever is submitted
// meanwhile is sliced by the size rule alone: this is how a test gets
// deterministic block sizes from an orderer whose batch size tracks load.
type gate struct {
	open    chan struct{}
	entered chan uint64 // block numbers, as they reach the hook
}

func newGate() *gate {
	return &gate{open: make(chan struct{}), entered: make(chan uint64, 64)}
}

func (g *gate) deliver(b *block.Block) error {
	g.entered <- b.Header.Number
	<-g.open
	return nil
}

// shut brings the orderer to the state in which the idle rule is off: one
// primer block held in the gate and one primer batch behind it in raft.
// Blocks 0 and 1 of the run are the two one-envelope primers.
func (g *gate) shut(t *testing.T, f *fixture, o *Orderer) {
	t.Helper()
	if err := o.Submit(f.envelope(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("primer block never reached the delivery hook")
	}
	if err := o.Submit(f.envelope(t)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		o.mu.Lock()
		parked := len(o.inflight) == 1 && len(o.pending) == 0
		o.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("primer batch never went in flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wantCuts waits for the orderer's cut counts: a cut is counted when the
// batch is taken, which can trail a check made right after Submit.
func wantCuts(t *testing.T, o *Orderer, size, idle, timeout int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s, i, to := o.Cuts()
		if s == size && i == idle && to == timeout {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cuts size/idle/timeout = %d/%d/%d, want %d/%d/%d", s, i, to, size, idle, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func sizes(blocks []*block.Block) []int {
	out := make([]int, len(blocks))
	for i, b := range blocks {
		out[i] = len(b.Envelopes)
	}
	return out
}

// TestIdleCut: an idle orderer does not wait for the clock. BatchTimeout is
// an hour, so only the idle rule can cut the lone envelope. How fast it
// cuts is TestTimingIdleCut's claim (build tag timing).
func TestIdleCut(t *testing.T) {
	f := newFixture(t)
	col := newCollector()
	o := New(Config{BatchSize: 100, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	defer o.Stop()
	o.OnDeliver(col.deliver)

	if err := o.Submit(f.envelope(t)); err != nil {
		t.Fatal(err)
	}
	blocks := col.wait(t, 1, 5*time.Second)
	if len(blocks[0].Envelopes) != 1 {
		t.Errorf("block size = %d, want 1", len(blocks[0].Envelopes))
	}
	wantCuts(t, o, 0, 1, 0)
}

// TestBacklogBecomesOneBlock: what arrives while earlier blocks are still
// leaving accumulates, and goes out as one block when the orderer is free.
func TestBacklogBecomesOneBlock(t *testing.T) {
	f := newFixture(t)
	col := newCollector()
	g := newGate()
	o := New(Config{BatchSize: 8, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	defer o.Stop()
	o.OnDeliver(g.deliver)
	o.OnDeliver(col.deliver)

	g.shut(t, f, o)
	const k = 5
	for i := 0; i < k; i++ {
		if err := o.Submit(f.envelope(t)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.open)
	blocks := col.wait(t, 3, 5*time.Second)
	if got := sizes(blocks); len(got) != 3 || got[2] != k {
		t.Fatalf("block sizes = %v, want [1 1 %d]", got, k)
	}
	if nb, ntx := o.Stats(); nb != 3 || ntx != 2+k {
		t.Errorf("stats = %d blocks / %d txs, want 3 / %d", nb, ntx, 2+k)
	}
}

// TestSizeCutsAreNotGated: with blocks still leaving, a backlog larger than
// BatchSize goes out as full blocks (cut inline, whatever is in flight) plus
// one remainder; the blocks chain, verify and are counted.
func TestSizeCutsAreNotGated(t *testing.T) {
	f := newFixture(t)
	col := newCollector()
	g := newGate()
	o := New(Config{BatchSize: 4, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	defer o.Stop()
	o.OnDeliver(g.deliver)
	o.OnDeliver(col.deliver)

	g.shut(t, f, o)
	for i := 0; i < 10; i++ {
		if err := o.Submit(f.envelope(t)); err != nil {
			t.Fatal(err)
		}
	}
	wantCuts(t, o, 2, 2, 0)
	close(g.open)
	blocks := col.wait(t, 5, 5*time.Second)
	if got, want := sizes(blocks), []int{1, 1, 4, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("block sizes = %v, want %v", got, want)
	}
	for i, b := range blocks {
		if b.Header.Number != uint64(i) {
			t.Errorf("block %d numbered %d", i, b.Header.Number)
		}
		if err := block.VerifyOrdererSignature(b); err != nil {
			t.Errorf("block %d signature: %v", i, err)
		}
		if i > 0 {
			prev := block.HeaderHash(&blocks[i-1].Header)
			if string(b.Header.PreviousHash) != string(prev) {
				t.Errorf("block %d previous hash broken", i)
			}
		}
	}
	nb, ntx := o.Stats()
	if nb != 5 || ntx != 12 {
		t.Errorf("stats = %d blocks / %d txs", nb, ntx)
	}
	if o.Height() != 5 {
		t.Errorf("height = %d", o.Height())
	}
	wantCuts(t, o, 2, 3, 0)
}

func TestMultipleDeliveryHooks(t *testing.T) {
	f := newFixture(t)
	c1, c2 := newCollector(), newCollector()
	o := New(Config{BatchSize: 1, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	defer o.Stop()
	o.OnDeliver(c1.deliver)
	o.OnDeliver(c2.deliver)
	if err := o.Submit(f.envelope(t)); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, 1, 5*time.Second)
	c2.wait(t, 1, 5*time.Second)
}

func TestSubmitAfterStop(t *testing.T) {
	f := newFixture(t)
	o := New(Config{BatchSize: 1}, f.ordID, f.cluster.Nodes[0])
	o.Stop()
	if err := o.Submit(f.envelope(t)); err == nil {
		t.Error("expected error after stop")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	f := newFixture(t)
	envs := []block.Envelope{*f.envelope(t), *f.envelope(t)}
	got, seq, err := unmarshalBatch(marshalBatch(envs, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("batch round trip = %d envelopes", len(got))
	}
	if seq != 7 {
		t.Fatalf("batch round trip seq = %d, want 7", seq)
	}
	for i := range envs {
		if string(got[i].PayloadBytes) != string(envs[i].PayloadBytes) {
			t.Errorf("envelope %d payload mismatch", i)
		}
	}
}

// TestTimeoutBoundsLeaderlessWait: while raft has no leader (its leader is
// stopped and one of the two others cut off) the idle rule stands down and
// the cut is retried once per BatchTimeout, not in a spin; once the cluster
// heals and elects a leader every envelope is ordered exactly once.
func TestTimeoutBoundsLeaderlessWait(t *testing.T) {
	f := newFixture(t)
	c := raft.NewCluster(3, 200*time.Millisecond)
	t.Cleanup(c.Stop)
	leader := c.WaitForLeader(5 * time.Second)
	if leader == nil {
		t.Fatal("raft leader election timed out")
	}
	var followers []*raft.Node
	for _, n := range c.Nodes {
		if n != leader {
			followers = append(followers, n)
		}
	}
	leader.Stop()
	c.Transport.SetDown(raft.NodeID(slices.Index(c.Nodes, followers[1])), true)
	follower := followers[0]
	const timeout = 20 * time.Millisecond
	o := New(Config{BatchSize: 100, BatchTimeout: timeout, Channel: "ch"}, f.ordID, follower)
	defer o.Stop()
	col := newCollector()
	o.OnDeliver(col.deliver)

	const total = 3
	want := make(map[string]bool, total)
	for i := 0; i < total; i++ {
		env := f.envelope(t)
		id, err := block.EnvelopeTxID(env)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
		if err := o.Submit(env); err != nil {
			t.Fatal(err)
		}
	}
	// Every refused attempt restarts the batch's wait, so the distinct
	// values of oldest are the attempts made; a sampler that runs late can
	// only miss some, which widens the gaps it sees.
	var restarts []time.Time
	for end := time.Now().Add(12 * timeout); time.Now().Before(end); time.Sleep(500 * time.Microsecond) {
		o.mu.Lock()
		at, refused := o.oldest, o.refused
		o.mu.Unlock()
		if refused && (len(restarts) == 0 || !at.Equal(restarts[len(restarts)-1])) {
			restarts = append(restarts, at)
		}
	}
	if len(restarts) < 3 {
		t.Fatalf("saw %d refused cuts in %v, want one per %v", len(restarts), 12*timeout, timeout)
	}
	for i := 1; i < len(restarts); i++ {
		if gap := restarts[i].Sub(restarts[i-1]); gap < timeout {
			t.Errorf("cut retried %v after the last refusal, want >= %v", gap, timeout)
		}
	}
	if nb, _ := o.Stats(); nb != 0 {
		t.Fatalf("%d blocks from a leaderless orderer", nb)
	}

	c.Transport.Heal()
	seen := make(map[string]int, total)
	for n := 0; n < total; {
		blocks := col.wait(t, 1, 5*time.Second)
		n = 0
		seen = make(map[string]int, total)
		for _, b := range blocks {
			for i := range b.Envelopes {
				id, err := block.EnvelopeTxID(&b.Envelopes[i])
				if err != nil {
					t.Fatal(err)
				}
				seen[id]++
				n++
			}
		}
		if n < total {
			time.Sleep(time.Millisecond)
		}
	}
	for id, n := range seen {
		if !want[id] || n != 1 {
			t.Errorf("txid %s ordered %d times (submitted: %v)", id, n, want[id])
		}
	}
	// The waiting envelopes went out on the timeout rule, in one batch.
	wantCuts(t, o, 0, 0, 1)
	if err := o.Err(); err != nil {
		t.Fatalf("orderer loop error: %v", err)
	}
}

// TestDeliveryHookFailureSurfaced: a failing delivery hook used to kill
// the node silently; it must now be visible through Err and Stop.
func TestDeliveryHookFailureSurfaced(t *testing.T) {
	f := newFixture(t)
	boom := errors.New("deliver hook exploded")
	o := New(Config{BatchSize: 1, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	o.OnDeliver(func(*block.Block) error { return boom })
	if err := o.Submit(f.envelope(t)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for o.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("fatal delivery error never surfaced through Err")
		}
		time.Sleep(time.Millisecond)
	}
	if err := o.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrapped %v", err, boom)
	}
	if err := o.Stop(); !errors.Is(err, boom) {
		t.Fatalf("Stop() = %v, want wrapped %v", err, boom)
	}
}

func TestStopWithoutErrorReturnsNil(t *testing.T) {
	f := newFixture(t)
	o := New(Config{BatchSize: 1}, f.ordID, f.cluster.Nodes[0])
	if err := o.Stop(); err != nil {
		t.Fatalf("clean Stop() = %v", err)
	}
}

func TestRaftOrderingAcrossThreeOrderers(t *testing.T) {
	// Multi-node ordering service: blocks are created identically on every
	// node because Raft totally orders the batches.
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	c := raft.NewCluster(3, 25*time.Millisecond)
	defer c.Stop()
	leaderNode := c.WaitForLeader(3 * time.Second)
	if leaderNode == nil {
		t.Fatal("no leader")
	}

	var orderers []*Orderer
	var cols []*collector
	for i := 0; i < 3; i++ {
		ordID, err := n.NewIdentity("Org1", identity.RoleOrderer)
		if err != nil {
			t.Fatal(err)
		}
		col := newCollector()
		o := New(Config{BatchSize: 2, BatchTimeout: time.Hour, Channel: "ch"}, ordID, c.Nodes[i])
		o.OnDeliver(col.deliver)
		orderers = append(orderers, o)
		cols = append(cols, col)
		defer o.Stop()
	}
	// Submit through the orderer bound to the raft leader.
	var leaderOrd *Orderer
	for i, node := range c.Nodes {
		if node == leaderNode {
			leaderOrd = orderers[i]
		}
	}
	env, err := block.NewEndorsedEnvelope(block.TxSpec{Creator: client, Chaincode: "cc", Channel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := leaderOrd.Submit(env); err != nil {
			t.Fatal(err)
		}
	}
	// Every orderer creates the same sequence of blocks (same data hash).
	var ref []*block.Block
	for i, col := range cols {
		blocks := col.wait(t, 2, 5*time.Second)
		if i == 0 {
			ref = blocks
			continue
		}
		for j := range ref {
			if string(blocks[j].Header.DataHash) != string(ref[j].Header.DataHash) {
				t.Errorf("orderer %d block %d data hash diverges", i, j)
			}
		}
	}
}
