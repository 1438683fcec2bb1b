package raft

import (
	"sync"
	"time"
)

// LocalTransport routes messages between nodes in-process, with optional
// per-link partitioning for fault-injection tests.
type LocalTransport struct {
	mu     sync.RWMutex
	nodes  map[NodeID]*Node   // guarded by mu
	cut    map[[2]NodeID]bool // guarded by mu
	downed map[NodeID]bool    // guarded by mu
}

// NewLocalTransport returns an empty in-process transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{
		nodes:  make(map[NodeID]*Node),
		cut:    make(map[[2]NodeID]bool),
		downed: make(map[NodeID]bool),
	}
}

// Register attaches a node so it can receive messages.
func (t *LocalTransport) Register(id NodeID, n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[id] = n
}

// Send delivers msg to its target, unless a partition or a downed node
// drops it.
func (t *LocalTransport) Send(msg Message) {
	t.mu.RLock()
	target := t.nodes[msg.To]
	blocked := t.cut[[2]NodeID{msg.From, msg.To}] || t.downed[msg.From] || t.downed[msg.To]
	t.mu.RUnlock()
	if target == nil || blocked {
		return // dropped, like a lossy network
	}
	target.Step(msg)
}

// Partition cuts both directions between a and b.
func (t *LocalTransport) Partition(a, b NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[[2]NodeID{a, b}] = true
	t.cut[[2]NodeID{b, a}] = true
}

// Heal restores all links and nodes.
func (t *LocalTransport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut = make(map[[2]NodeID]bool)
	t.downed = make(map[NodeID]bool)
}

// SetDown isolates a node entirely (crash simulation without stopping the
// goroutine).
func (t *LocalTransport) SetDown(id NodeID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.downed[id] = down
}

// Cluster is a convenience wrapper: n nodes over a LocalTransport.
type Cluster struct {
	Transport *LocalTransport
	Nodes     []*Node
}

// NewCluster starts an n-node cluster with fast timeouts for tests and the
// local ordering service.
func NewCluster(n int, electionTimeout time.Duration) *Cluster {
	tr := NewLocalTransport()
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i)
	}
	c := &Cluster{Transport: tr}
	for i := 0; i < n; i++ {
		node := NewNode(Config{
			ID:              NodeID(i),
			Peers:           peers,
			ElectionTimeout: electionTimeout,
			Seed:            int64(1000 + i),
		}, tr)
		tr.Register(NodeID(i), node)
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// WaitForLeader blocks until some node is leader, returning it (nil on
// timeout).
func (c *Cluster) WaitForLeader(timeout time.Duration) *Node {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if leader := c.Nodes[0].Leader(); leader != nil {
			return leader
		}
	}
	return nil
}

// Stop stops every node.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
}
