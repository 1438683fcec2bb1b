// Package raft implements the consensus substrate of the ordering service:
// leader election and log replication following the Raft protocol (Ongaro &
// Ousterhout, USENIX ATC 2014), which Fabric v1.4 uses for ordering.
//
// The implementation is deliberately compact — enough Raft for a correct
// single-channel ordering service: randomized election timeouts, term-based
// leader election, log replication with consistency checks, and commitment
// by majority match. Snapshots and membership changes are out of scope, as
// they are for the paper's single-orderer evaluation setup.
// A node publishes its committed prefix (Committed) and never waits for a
// reader; a client finds the node to propose to with Leader.
package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NodeID identifies a raft node within its cluster (>= 0).
type NodeID int

// None is the nil node id.
const None NodeID = -1

// State is a node's role.
type State int

// Node states.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Entry is one replicated log entry.
type Entry struct {
	Term  uint64
	Index int // 1-based log index
	Data  []byte
}

// MessageKind discriminates RPC messages.
type MessageKind int

// Message kinds.
const (
	MsgRequestVote MessageKind = iota + 1
	MsgVoteResponse
	MsgAppendEntries
	MsgAppendResponse
)

// Message is a Raft RPC (request or response).
type Message struct {
	Kind MessageKind
	From NodeID
	To   NodeID
	Term uint64

	// RequestVote
	LastLogIndex int
	LastLogTerm  uint64
	// VoteResponse
	Granted bool
	// AppendEntries
	PrevLogIndex int
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit int
	// AppendResponse
	Success    bool
	MatchIndex int
}

// Config parameterizes a node.
type Config struct {
	ID    NodeID
	Peers []NodeID // all cluster members including self
	// ElectionTimeout is the base election timeout; the effective timeout
	// is randomized in [ElectionTimeout, 2*ElectionTimeout).
	ElectionTimeout time.Duration
	// HeartbeatInterval must be well below ElectionTimeout.
	HeartbeatInterval time.Duration
	// Seed randomizes election timeouts deterministically in tests.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTimeout == 0 {
		out.ElectionTimeout = 150 * time.Millisecond
	}
	if out.HeartbeatInterval == 0 {
		out.HeartbeatInterval = out.ElectionTimeout / 5
	}
	if out.Seed == 0 {
		out.Seed = time.Now().UnixNano()
	}
	return out
}

// ErrNotLeader reports a Propose on a non-leader node.
var ErrNotLeader = errors.New("raft: not the leader")

// ErrStopped reports an operation on a stopped node.
var ErrStopped = errors.New("raft: node stopped")

type proposal struct {
	data []byte
	resp chan error
}

// Node is one Raft participant. Create with NewNode, feed incoming messages
// with Step, and read committed entries with Committed.
type Node struct {
	cfg       Config
	transport *LocalTransport

	inbox   chan Message
	propose chan proposal
	stopCh  chan struct{}
	doneCh  chan struct{}

	mu        sync.Mutex    // guards the observable state below
	state     State         // guarded by mu
	term      uint64        // guarded by mu
	leader    NodeID        // guarded by mu
	committed []Entry       // guarded by mu; log[:commitIndex+1], which is never rewritten
	commitCh  chan struct{} // guarded by mu; closed at the next commit

	// raft state, owned by the run goroutine
	votedFor     NodeID
	log          []Entry // log[0] unused; 1-based indexing
	commitIndex  int
	nextIndex    map[NodeID]int
	matchIndex   map[NodeID]int
	votes        map[NodeID]bool
	rng          *rand.Rand
	electionDue  time.Time
	heartbeatDue time.Time
}

// NewNode creates and starts a node.
func NewNode(cfg Config, transport *LocalTransport) *Node {
	c := cfg.withDefaults()
	n := &Node{
		cfg:       c,
		transport: transport,
		inbox:     make(chan Message, 256),
		propose:   make(chan proposal),
		commitCh:  make(chan struct{}),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		state:     Follower,
		leader:    None,
		votedFor:  None,
		log:       make([]Entry, 1), // dummy at index 0
		rng:       rand.New(rand.NewSource(c.Seed + int64(c.ID))),
	}
	n.resetElectionTimer(time.Now())
	go n.run()
	return n
}

// Step feeds an incoming message; non-blocking best effort (Raft tolerates
// message loss).
func (n *Node) Step(msg Message) {
	select {
	case n.inbox <- msg:
	case <-n.stopCh:
	default: // inbox overflow == network drop
	}
}

// Committed returns the committed entries after log index from, in log
// order, and a channel that is closed at the next commit. Committed entries
// are the same on every node, so a reader may move its index from one node
// to another.
func (n *Node) Committed(from int) ([]Entry, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.committed[min(from+1, len(n.committed)):], n.commitCh
}

// Leader returns the node on this node's transport that leads at the
// highest term, or nil while none leads. A deposed leader that has not
// heard of its successor yet still leads, at its older term.
func (n *Node) Leader() (leader *Node) {
	n.transport.mu.RLock()
	defer n.transport.mu.RUnlock()
	var top uint64
	for _, peer := range n.transport.nodes {
		if term, state, _ := peer.Status(); state == Leader && term > top {
			leader, top = peer, term
		}
	}
	return leader
}

// Propose submits data for replication. It blocks until the entry has been
// accepted into the leader's log (not until commit) and fails with
// ErrNotLeader on non-leaders.
func (n *Node) Propose(data []byte) error {
	p := proposal{data: data, resp: make(chan error, 1)}
	select {
	case n.propose <- p:
	case <-n.stopCh:
		return ErrStopped
	}
	select {
	case err := <-p.resp:
		return err
	case <-n.stopCh:
		return ErrStopped
	}
}

// Status reports the node's current term, state and known leader.
func (n *Node) Status() (term uint64, state State, leader NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term, n.state, n.leader
}

// Stop terminates the node's goroutine and gives up its leadership, so a
// stopped node is never its cluster's leader.
func (n *Node) Stop() {
	select {
	case <-n.stopCh:
		return // already stopped
	default:
	}
	close(n.stopCh)
	<-n.doneCh
	n.setState(Follower, n.curTerm(), None)
}

func (n *Node) run() {
	defer close(n.doneCh)
	ticker := time.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case msg := <-n.inbox:
			n.handle(msg)
		case p := <-n.propose:
			n.handlePropose(p)
		case now := <-ticker.C:
			n.tick(now)
		}
	}
}

func (n *Node) setState(state State, term uint64, leader NodeID) {
	n.mu.Lock()
	n.state = state
	n.term = term
	n.leader = leader
	n.mu.Unlock()
}

func (n *Node) curState() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

func (n *Node) curTerm() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

func (n *Node) resetElectionTimer(now time.Time) {
	jitter := time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
	n.electionDue = now.Add(n.cfg.ElectionTimeout + jitter)
}

func (n *Node) lastLogIndex() int { return len(n.log) - 1 }

func (n *Node) lastLogTerm() uint64 {
	if len(n.log) == 1 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

func (n *Node) tick(now time.Time) {
	switch n.curState() {
	case Leader:
		if now.After(n.heartbeatDue) {
			n.broadcastAppend()
			n.heartbeatDue = now.Add(n.cfg.HeartbeatInterval)
		}
	case Follower, Candidate:
		if now.After(n.electionDue) {
			n.startElection(now)
		}
	}
}

func (n *Node) startElection(now time.Time) {
	term := n.curTerm() + 1
	n.setState(Candidate, term, None)
	n.votedFor = n.cfg.ID
	n.votes = map[NodeID]bool{n.cfg.ID: true}
	n.resetElectionTimer(now)
	for _, peer := range n.cfg.Peers {
		if peer == n.cfg.ID {
			continue
		}
		n.transport.Send(Message{
			Kind:         MsgRequestVote,
			From:         n.cfg.ID,
			To:           peer,
			Term:         term,
			LastLogIndex: n.lastLogIndex(),
			LastLogTerm:  n.lastLogTerm(),
		})
	}
	if n.hasQuorum(len(n.votes)) { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) hasQuorum(count int) bool {
	return count*2 > len(n.cfg.Peers)
}

func (n *Node) becomeLeader() {
	n.setState(Leader, n.curTerm(), n.cfg.ID)
	n.nextIndex = make(map[NodeID]int, len(n.cfg.Peers))
	n.matchIndex = make(map[NodeID]int, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = n.lastLogIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.cfg.ID] = n.lastLogIndex()
	n.broadcastAppend()
	n.heartbeatDue = time.Now().Add(n.cfg.HeartbeatInterval)
}

func (n *Node) stepDown(term uint64, leader NodeID) {
	n.setState(Follower, term, leader)
	n.votedFor = None
	n.resetElectionTimer(time.Now())
}

func (n *Node) handle(msg Message) {
	if msg.Term > n.curTerm() {
		n.stepDown(msg.Term, None)
	}
	switch msg.Kind {
	case MsgRequestVote:
		n.handleRequestVote(msg)
	case MsgVoteResponse:
		n.handleVoteResponse(msg)
	case MsgAppendEntries:
		n.handleAppendEntries(msg)
	case MsgAppendResponse:
		n.handleAppendResponse(msg)
	}
}

func (n *Node) handleRequestVote(msg Message) {
	term := n.curTerm()
	grant := false
	if msg.Term >= term && (n.votedFor == None || n.votedFor == msg.From) {
		// Candidate's log must be at least as up-to-date as ours.
		upToDate := msg.LastLogTerm > n.lastLogTerm() ||
			(msg.LastLogTerm == n.lastLogTerm() && msg.LastLogIndex >= n.lastLogIndex())
		if upToDate {
			grant = true
			n.votedFor = msg.From
			n.resetElectionTimer(time.Now())
		}
	}
	n.transport.Send(Message{
		Kind:    MsgVoteResponse,
		From:    n.cfg.ID,
		To:      msg.From,
		Term:    n.curTerm(),
		Granted: grant,
	})
}

func (n *Node) handleVoteResponse(msg Message) {
	if n.curState() != Candidate || msg.Term != n.curTerm() || !msg.Granted {
		return
	}
	n.votes[msg.From] = true
	if n.hasQuorum(len(n.votes)) {
		n.becomeLeader()
	}
}

func (n *Node) handleAppendEntries(msg Message) {
	term := n.curTerm()
	resp := Message{
		Kind: MsgAppendResponse,
		From: n.cfg.ID,
		To:   msg.From,
		Term: term,
	}
	if msg.Term < term {
		n.transport.Send(resp)
		return
	}
	// Valid leader for this term.
	n.stepDown(msg.Term, msg.From)
	resp.Term = msg.Term

	// Log consistency check.
	if msg.PrevLogIndex > n.lastLogIndex() ||
		(msg.PrevLogIndex > 0 && n.log[msg.PrevLogIndex].Term != msg.PrevLogTerm) {
		n.transport.Send(resp) // Success=false
		return
	}
	// Append/truncate.
	for i, e := range msg.Entries {
		idx := msg.PrevLogIndex + 1 + i
		if idx <= n.lastLogIndex() {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx] // conflict: truncate
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	if msg.LeaderCommit > n.commitIndex {
		n.commitIndex = min(msg.LeaderCommit, n.lastLogIndex())
		n.publishCommitted()
	}
	resp.Success = true
	resp.MatchIndex = msg.PrevLogIndex + len(msg.Entries)
	n.transport.Send(resp)
}

func (n *Node) handleAppendResponse(msg Message) {
	if n.curState() != Leader || msg.Term != n.curTerm() {
		return
	}
	if msg.Success {
		if msg.MatchIndex > n.matchIndex[msg.From] {
			n.matchIndex[msg.From] = msg.MatchIndex
		}
		n.nextIndex[msg.From] = n.matchIndex[msg.From] + 1
		n.maybeCommit()
		if n.nextIndex[msg.From] <= n.lastLogIndex() {
			n.sendAppend(msg.From) // continue catching the follower up
		}
	} else {
		if n.nextIndex[msg.From] > 1 {
			n.nextIndex[msg.From]--
		}
		n.sendAppend(msg.From)
	}
}

func (n *Node) maybeCommit() {
	// Find the highest index replicated on a majority with current term.
	for idx := n.lastLogIndex(); idx > n.commitIndex; idx-- {
		if n.log[idx].Term != n.curTerm() {
			break // only commit entries from the current term directly
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if n.hasQuorum(count) {
			n.commitIndex = idx
			n.publishCommitted()
			break
		}
	}
}

// publishCommitted makes the committed prefix readable and wakes its
// readers. Raft never rewrites a committed entry, so the run goroutine's
// later appends and truncations leave the published prefix alone.
func (n *Node) publishCommitted() {
	n.mu.Lock()
	n.committed = n.log[:n.commitIndex+1]
	close(n.commitCh)
	n.commitCh = make(chan struct{})
	n.mu.Unlock()
}

func (n *Node) broadcastAppend() {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.sendAppend(p)
		}
	}
}

func (n *Node) sendAppend(to NodeID) {
	next := n.nextIndex[to]
	if next < 1 {
		next = 1
	}
	prevIdx := next - 1
	var prevTerm uint64
	if prevIdx > 0 && prevIdx <= n.lastLogIndex() {
		prevTerm = n.log[prevIdx].Term
	}
	var entries []Entry
	if next <= n.lastLogIndex() {
		entries = append(entries, n.log[next:]...)
	}
	n.transport.Send(Message{
		Kind:         MsgAppendEntries,
		From:         n.cfg.ID,
		To:           to,
		Term:         n.curTerm(),
		PrevLogIndex: prevIdx,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) handlePropose(p proposal) {
	if n.curState() != Leader {
		p.resp <- ErrNotLeader
		return
	}
	entry := Entry{
		Term:  n.curTerm(),
		Index: n.lastLogIndex() + 1,
		Data:  p.data,
	}
	n.log = append(n.log, entry)
	n.matchIndex[n.cfg.ID] = n.lastLogIndex()
	if n.hasQuorum(1) { // single-node cluster commits immediately
		n.maybeCommit()
	} else {
		n.broadcastAppend()
	}
	p.resp <- nil
}
