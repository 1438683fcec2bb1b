package main

// wiring.go is the only file of the benchmark that calls into the repo's
// packages. Everything else works on the local types declared here, so a
// change to the peers' constructors or the engines needs a follow-up in this
// file alone. The stack is wired the way cluster.Run wires it, minus chaos,
// churn and telemetry, and without cluster.Run, load.Generator.Run or
// bmac.RunCluster: a failed operation here is counted, never fatal.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/chaincode"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/delivery"
	"bmac/internal/endorser"
	"bmac/internal/fabcrypto"
	"bmac/internal/gossip"
	"bmac/internal/hwsim"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/pipeline"
	"bmac/internal/raft"
	"bmac/internal/statedb"
)

// blk is a signed block as the repo's packages exchange it.
type blk = block.Block

const (
	chaincodeName = "smallbank" // the chaincode config.Default installs a 2of2 policy for
	seqWorkers    = 4           // vscc workers of the sequential peer, as in cluster.Run
)

// stages is one block's validation cost as the peer reports it (the
// Breakdown CommitBlock returns), or as the BMac hardware model reports it.
type stages struct {
	Unmarshal, BlockVerify, VSCC, MVCC, StateDB, Ledger time.Duration
	PrefetchWait, Total                                 time.Duration
	ECDSA, SigCacheHits, ParseCacheHits                 int

	HWValidate, HWMVCCCommit    time.Duration
	HWEndsVerified, HWEndsSkips int
}

func (s *stages) add(o stages) {
	s.Unmarshal += o.Unmarshal
	s.BlockVerify += o.BlockVerify
	s.VSCC += o.VSCC
	s.MVCC += o.MVCC
	s.StateDB += o.StateDB
	s.Ledger += o.Ledger
	s.PrefetchWait += o.PrefetchWait
	s.Total += o.Total
	s.ECDSA += o.ECDSA
	s.SigCacheHits += o.SigCacheHits
	s.ParseCacheHits += o.ParseCacheHits
	s.HWValidate += o.HWValidate
	s.HWMVCCCommit += o.HWMVCCCommit
	s.HWEndsVerified += o.HWEndsVerified
	s.HWEndsSkips += o.HWEndsSkips
}

// commitOut is what a peer reports for one committed block.
type commitOut struct {
	Num        uint64
	Flags      []byte
	CommitHash []byte
	Stages     stages
}

func toCommitOut(r peer.CommitResult) commitOut {
	bd := r.Breakdown
	return commitOut{
		Num:        r.BlockNum,
		Flags:      r.Flags,
		CommitHash: r.CommitHash,
		Stages: stages{
			Unmarshal: bd.Unmarshal, BlockVerify: bd.BlockVerify, VSCC: bd.VerifyVSCC,
			MVCC: bd.MVCC, StateDB: bd.StateDB, Ledger: bd.LedgerCommit,
			PrefetchWait: bd.PrefetchWait, Total: bd.Total,
			ECDSA: bd.ECDSACount, SigCacheHits: bd.SigCacheHits, ParseCacheHits: bd.ParseCacheHits,
			HWValidate: r.HWStats.ValidateTime, HWMVCCCommit: r.HWStats.MVCCCommitTime,
			HWEndsVerified: r.HWStats.EndsVerified, HWEndsSkips: r.HWStats.EndsSkipped,
		},
	}
}

// flagsMatch compares a peer's validation flags with the generator's
// expected verdicts: a planned conflict must be flagged as an MVCC read
// conflict, everything else as valid.
func flagsMatch(flags []byte, expect []bool) bool {
	if len(flags) != len(expect) {
		return false
	}
	for i, ok := range expect {
		want := block.MVCCReadConflict
		if ok {
			want = block.Valid
		}
		if block.ValidationCode(flags[i]) != want {
			return false
		}
	}
	return true
}

func countValid(flags []byte) int { return block.CountValid(flags) }

func blockTxIDs(b *blk) []string {
	ids := make([]string, len(b.Envelopes))
	for i := range b.Envelopes {
		// An undecodable header leaves "", which matches no submitted tx
		// and so surfaces as an uncommitted (failed) one.
		ids[i], _ = block.EnvelopeTxID(&b.Envelopes[i]) // bmaclint:allow errdiscard (counted by the caller as a missing tx)
	}
	return ids
}

// stateHash digests a planned final state the same way storeHash digests a
// peer's database, so the two compare byte for byte.
func stateHash(state map[string]kvState) []byte {
	snap := make(map[string]statedb.VersionedValue, len(state))
	for k, v := range state {
		snap[k] = statedb.VersionedValue{Value: v.Value, Version: block.Version{BlockNum: v.Ver.Block, TxNum: v.Ver.Tx}}
	}
	return statedb.SnapshotHash(snap)
}

// network holds the identities every workload signs with. Validation looks
// only at certificates, so one network serves any number of fresh configs.
type network struct {
	net       *identity.Network
	client    *identity.Identity
	orderer   *identity.Identity
	endorsers []*identity.Identity
}

func newNetwork() (*network, error) {
	cfg := config.Default()
	net, err := cfg.BuildNetwork()
	if err != nil {
		return nil, err
	}
	n := &network{net: net}
	if n.client, err = net.LookupByName("client0." + cfg.Orgs[0].Name); err != nil {
		return nil, err
	}
	if n.orderer, err = net.LookupByName("orderer0." + cfg.Orgs[0].Name); err != nil {
		return nil, err
	}
	for _, org := range cfg.Orgs {
		for i := 0; i < org.Endorsers; i++ {
			id, err := net.LookupByName(fmt.Sprintf("peer%d.%s", i, org.Name))
			if err != nil {
				return nil, err
			}
			n.endorsers = append(n.endorsers, id)
		}
	}
	return n, nil
}

// buildChain signs a planned chain: every envelope endorsed by all endorsers
// and signed by the client, every block signed by the orderer and chained to
// its predecessor's header hash. Envelopes are signed on all CPUs; nonces
// and ECDSA signatures are random, RW sets and verdicts are not.
func (n *network) buildChain(plan *chainPlan) ([]*blk, error) {
	envs := make([][]block.Envelope, len(plan.Blocks))
	errs := make([]error, len(plan.Blocks))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for bn := range plan.Blocks {
		wg.Add(1)
		sem <- struct{}{}
		go func(bn int) {
			defer wg.Done()
			defer func() { <-sem }()
			envs[bn] = make([]block.Envelope, len(plan.Blocks[bn]))
			for i, tx := range plan.Blocks[bn] {
				var rw block.RWSet
				for _, r := range tx.Reads {
					rw.Reads = append(rw.Reads, block.KVRead{Key: r.Key, Version: block.Version{BlockNum: r.Ver.Block, TxNum: r.Ver.Tx}})
				}
				for _, w := range tx.Writes {
					rw.Writes = append(rw.Writes, block.KVWrite{Key: w.Key, Value: w.Value})
				}
				env, err := block.NewEndorsedEnvelope(block.TxSpec{
					Creator: n.client, Chaincode: chaincodeName, Channel: "ch1",
					RWSet: rw, Endorsers: n.endorsers,
				})
				if err != nil {
					errs[bn] = err
					return
				}
				envs[bn][i] = *env
			}
		}(bn)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	chain := make([]*blk, len(envs))
	var prev []byte
	for bn := range envs {
		b, err := block.NewBlock(uint64(bn), prev, envs[bn], n.orderer)
		if err != nil {
			return nil, err
		}
		chain[bn] = b
		prev = block.HeaderHash(&b.Header)
	}
	return chain, nil
}

// replayPeer is one validation path behind a uniform hand-off: submit hands
// a block over, result returns the oldest outstanding verdict. The software
// peers commit synchronously (window 1); the BMac peer validates block n+1
// in "hardware" while the host commits block n (window 2).
type replayPeer struct {
	window int
	submit func(*blk) error
	result func() (commitOut, error)
	close  func() error

	led       *ledger.Ledger
	storeHash func() []byte
	accesses  func() (reads, writes int)

	// BMac path only: the sender, for the per-block wire statistics.
	sender *bmacproto.Sender
	link   *bmacproto.MemLink
}

// newReplayPeer opens a fresh peer of the given kind in dir over a fresh
// config, so that no signature, certificate or parse cache survives from an
// earlier pass: a peer sees every block of a real chain once.
func (n *network) newReplayPeer(kind, dir string, countAccesses bool) (*replayPeer, error) {
	cfg := config.Default()
	cfg.StateDB.NoCountAccesses = !countAccesses
	switch kind {
	case "seq":
		vcfg, err := cfg.ValidatorConfig(seqWorkers)
		if err != nil {
			return nil, err
		}
		kvs, err := cfg.NewKVS()
		if err != nil {
			return nil, err
		}
		p, err := peer.NewDurableSWPeer(vcfg, kvs, dir, peer.DurableOptions{})
		if err != nil {
			return nil, err
		}
		return syncPeer(p.CommitBlock, p.Close, p.Ledger, kvs), nil
	case "par":
		pcfg, err := cfg.PipelineConfig()
		if err != nil {
			return nil, err
		}
		kvs, err := cfg.NewKVS()
		if err != nil {
			return nil, err
		}
		p, err := peer.NewDurableParallelPeer(pcfg, kvs, dir, peer.DurableOptions{})
		if err != nil {
			return nil, err
		}
		return syncPeer(p.CommitBlock, p.Close, p.Ledger, kvs), nil
	case "bmac":
		ccfg, err := cfg.CoreConfig()
		if err != nil {
			return nil, err
		}
		p, err := peer.NewBMacPeer(ccfg, cfg.Arch.DBCapacity, dir)
		if err != nil {
			return nil, err
		}
		link := bmacproto.NewMemLink(p.Receiver)
		sender := bmacproto.NewSender(identity.NewCache(), link)
		if err := sender.RegisterNetwork(n.net); err != nil {
			p.Close() // bmaclint:allow errdiscard (error path: the registration error is the one to report)
			return nil, err
		}
		db := p.Proc.DB()
		return &replayPeer{
			window: 2,
			submit: func(b *blk) error { _, err := sender.SendBlock(b); return err },
			result: func() (commitOut, error) {
				r, ok := <-p.Results()
				if !ok {
					if err := p.Err(); err != nil {
						return commitOut{}, err
					}
					return commitOut{}, errors.New("bmac peer stopped")
				}
				return toCommitOut(r), nil
			},
			close:     p.Close,
			led:       p.Ledger,
			storeHash: func() []byte { return statedb.SnapshotHash(db.Snapshot()) },
			accesses:  db.AccessCounts,
			sender:    sender,
			link:      link,
		}, nil
	}
	return nil, fmt.Errorf("unknown validation path %q", kind)
}

func syncPeer(commit func(*blk) (peer.CommitResult, error), closeFn func() error, led *ledger.Ledger, kvs statedb.KVS) *replayPeer {
	var last commitOut
	return &replayPeer{
		window: 1,
		submit: func(b *blk) error {
			r, err := commit(b)
			last = toCommitOut(r)
			return err
		},
		result:    func() (commitOut, error) { return last, nil },
		close:     closeFn,
		led:       led,
		storeHash: func() []byte { return statedb.SnapshotHash(kvs.Snapshot()) },
		accesses:  kvs.AccessCounts,
	}
}

// ledgerBytes reports the bytes the peer's ledger has appended.
func (p *replayPeer) ledgerBytes() int64 { return p.led.BytesWritten() }

// probe runs the direct-call probes against this peer's ledger.
func (p *replayPeer) probe(n *network, seed int64, sample *blk) (probeResults, error) {
	return n.runProbes(seed, p.led, sample)
}

// bmacWire is what the BMac protocol sender puts on the link for one block,
// next to the block's size on the gossip wire.
type bmacWire struct {
	EncodeTime   time.Duration
	TransmitTime time.Duration
	Packets      int
	Bytes        int
	GossipBytes  int
}

// sendSplit is SendBlock taken apart so that encoding and transmission (with
// MemLink, the receiver's packet processing runs inside SendPacket) can be
// timed separately in a traced pass.
func (p *replayPeer) sendSplit(b *blk) (bmacWire, error) {
	t0 := time.Now()
	packets, st, err := p.sender.EncodeBlock(b)
	if err != nil {
		return bmacWire{}, err
	}
	t1 := time.Now()
	for _, pkt := range packets {
		if err := p.link.SendPacket(pkt); err != nil {
			return bmacWire{}, err
		}
	}
	return bmacWire{
		EncodeTime: t1.Sub(t0), TransmitTime: time.Since(t1),
		Packets: st.Packets, Bytes: st.Bytes, GossipBytes: block.Size(b),
	}, nil
}

// depStats runs the pipelined engine's own dependency analysis over a plan:
// mean read-after-write edges per block and mean critical path length.
func depStats(plan *chainPlan) (edgesPerBlock, criticalPath float64) {
	for _, txs := range plan.Blocks {
		accs := make([]pipeline.Access, len(txs))
		for i, tx := range txs {
			for _, r := range tx.Reads {
				accs[i].Reads = append(accs[i].Reads, r.Key)
			}
			for _, w := range tx.Writes {
				accs[i].Writes = append(accs[i].Writes, w.Key)
			}
		}
		g := pipeline.BuildGraph(accs)
		edgesPerBlock += float64(g.Edges())
		criticalPath += float64(g.CriticalPath())
	}
	n := float64(len(plan.Blocks))
	return edgesPerBlock / n, criticalPath / n
}

// hwsimBlock is the timing simulator's verdict for one block of the chain's
// shape on the default architecture: simulated time, not host time.
func hwsimBlock(txs, endorsements, reads, writes int) (simTPS, simBlockUS float64, err error) {
	cfg := config.Default()
	circuits, err := cfg.Circuits()
	if err != nil {
		return 0, 0, err
	}
	t := hwsim.Simulate(cfg.HWSimConfig(), circuits[chaincodeName], hwsim.UniformTxProfile(txs, endorsements, reads, writes))
	return t.Throughput(txs), float64(t.BlockLatency()) / float64(time.Microsecond), nil
}

// probeResults are medians of direct calls into single layers, in
// microseconds. They do not depend on the workload; they locate a layer's
// unit cost next to the workload's per-layer shares.
type probeResults struct {
	SignUS, VerifyUS, EndorserProcessUS float64
	LedgerGetUS, WriteBatchUS           float64
	BlockMarshalUS, BlockUnmarshalUS    float64
}

const probeCalls = 500

// runProbes times probeCalls direct calls of each probed operation. led must
// hold at least one block; sample is a block of the workload's shape.
func (n *network) runProbes(seed int64, led *ledger.Ledger, sample *blk) (probeResults, error) {
	var out probeResults
	rng := rand.New(rand.NewSource(seed))
	msg := make([]byte, 256)
	rng.Read(msg)
	id := n.endorsers[0]
	var sig []byte
	var err error
	out.SignUS, err = medianCallUS(probeCalls, func() error {
		sig, err = id.Sign(msg)
		return err
	})
	if err != nil {
		return out, err
	}
	out.VerifyUS, err = medianCallUS(probeCalls, func() error {
		return fabcrypto.Verify(id.PublicKey(), msg, sig)
	})
	if err != nil {
		return out, err
	}

	reg := chaincode.NewRegistry(chaincode.Smallbank{})
	w := client.SmallbankWorkload{Accounts: 1000}
	store := statedb.NewStore()
	if err := client.Bootstrap(w, reg, store); err != nil {
		return out, err
	}
	end := endorser.New(id, store, reg)
	out.EndorserProcessUS, err = medianCallUS(probeCalls, func() error {
		fn, args := w.Next(rng)
		_, err := end.Process(&endorser.Proposal{
			Chaincode: w.Chaincode(), Function: fn, Args: args, Nonce: msg[:24], Creator: n.client.Cert,
		})
		return err
	})
	if err != nil {
		return out, err
	}

	height := led.Height()
	if height == 0 {
		return out, errors.New("probe: empty ledger")
	}
	out.LedgerGetUS, err = medianCallUS(probeCalls, func() error {
		_, err := led.Get(uint64(rng.Int63n(int64(height))))
		return err
	})
	if err != nil {
		return out, err
	}

	kvs := statedb.NewStore()
	writes := make([]block.KVWrite, 2)
	out.WriteBatchUS, err = medianCallUS(probeCalls, func() error {
		for i := range writes {
			writes[i] = block.KVWrite{Key: fmt.Sprintf("k%05d", rng.Intn(4000)), Value: msg[:12]}
		}
		kvs.WriteBatch(writes, block.Version{BlockNum: 1})
		return nil
	})
	if err != nil {
		return out, err
	}

	var raw []byte
	out.BlockMarshalUS, err = medianCallUS(probeCalls/5, func() error {
		raw = block.Marshal(sample)
		return nil
	})
	if err != nil {
		return out, err
	}
	out.BlockUnmarshalUS, err = medianCallUS(probeCalls/5, func() error {
		_, err := block.Unmarshal(raw)
		return err
	})
	return out, err
}

// e2eStack is the full commit path in one process: client drivers, two
// endorsers, the orderer on a single raft node, the orderer's ledger, the
// delivery service, and two gossip peers on TCP loopback. Peer 0 is the
// observer (pipelined engine) and plays committer for the endorsers' world
// state; peer 1 runs the sequential validator and exists to be compared.
type e2eStack struct {
	net       *network
	endorsers []*endorser.Endorser
	raft      *raft.Cluster
	ord       *orderer.Orderer
	ordLed    *ledger.Ledger
	svc       *delivery.Service
	peers     [2]*gossipPeer
	drivers   []*e2eDriver
	started   bool // commit loops launched, so every peer's done will close

	// applyMu keeps the endorsers' stores consistent with each other: a
	// client endorses under the read side, the observer applies a committed
	// block to every endorser store under the write side, so no proposal
	// ever sees one endorser ahead of the other.
	applyMu sync.RWMutex

	onDeliver func(deliverTimes)      // called from the orderer's apply loop
	onCommit  func(*blk, observation) // called from the observer's commit loop
}

// deliverTimes are the orderer-side timestamps of one block.
type deliverTimes struct {
	Num                        uint64
	Entry, Appended, Published time.Time
	MaxLag                     uint64
}

// observation is what the observer saw for one block.
type observation struct {
	Received, Committed time.Time
	ApplyWait           time.Duration
	Out                 commitOut
}

type gossipPeer struct {
	name      string
	ln        *gossip.Listener
	commit    func(*blk) (peer.CommitResult, error)
	close     func() error
	led       *ledger.Ledger
	store     statedb.KVS
	done      chan struct{}
	mu        sync.Mutex
	err       error // guarded by mu
	committed uint64
}

func (p *gossipPeer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// e2eDriver is one client: a client.Driver whose path to the orderer runs
// through a tap that times the orderer's Submit call.
type e2eDriver struct {
	stack  *e2eStack
	driver *client.Driver
	tap    *submitTap
}

type submitTap struct {
	ord        *orderer.Orderer
	start, end time.Time
}

func (t *submitTap) Submit(env *block.Envelope) error {
	t.start = time.Now()
	err := t.ord.Submit(env)
	t.end = time.Now()
	return err
}

// submitTx endorses, assembles and submits one transaction. The returned
// times are the window of the orderer's Submit call inside it.
func (d *e2eDriver) submitTx() (txid string, ordStart, ordEnd time.Time, err error) {
	d.stack.applyMu.RLock()
	txid, err = d.driver.SubmitTx()
	d.stack.applyMu.RUnlock()
	return txid, d.tap.start, d.tap.end, err
}

// newE2EStack wires and bootstraps the stack in dir. The state databases'
// access counters start off; setCounting turns the observer's on.
func (n *network) newE2EStack(dir string, seed int64, clients, accounts int) (*e2eStack, error) {
	cfg := config.Default()
	cfg.StateDB.NoCountAccesses = true
	s := &e2eStack{net: n}
	ok := false
	defer func() {
		if !ok {
			s.close() // bmaclint:allow errdiscard (error path: the construction error is the one to report)
		}
	}()
	registry := chaincode.NewRegistry(chaincode.Smallbank{})
	for _, id := range n.endorsers {
		s.endorsers = append(s.endorsers, endorser.New(id, statedb.NewStore(), registry))
	}
	s.raft = raft.NewCluster(1, 20*time.Millisecond)
	leader := s.raft.WaitForLeader(5 * time.Second)
	if leader == nil {
		return nil, errors.New("raft leader election timed out")
	}
	s.ord = orderer.New(orderer.Config{
		BatchSize:    cfg.Arch.MaxBlockTxs,
		BatchTimeout: 30 * time.Millisecond,
		Channel:      cfg.Channel,
	}, n.orderer, leader)
	var err error
	if s.ordLed, err = ledger.Open(filepath.Join(dir, "orderer"), ledger.Options{}); err != nil {
		return nil, err
	}

	pcfg, err := cfg.PipelineConfig()
	if err != nil {
		return nil, err
	}
	vcfg, err := cfg.ValidatorConfig(seqWorkers)
	if err != nil {
		return nil, err
	}
	for i := range s.peers {
		kvs, err := cfg.NewKVS()
		if err != nil {
			return nil, err
		}
		ln, err := gossip.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p := &gossipPeer{name: fmt.Sprintf("peer%d", i), ln: ln, store: kvs, done: make(chan struct{})}
		s.peers[i] = p
		pdir := filepath.Join(dir, p.name)
		if i == 0 {
			pp, err := peer.NewDurableParallelPeer(pcfg, kvs, pdir, peer.DurableOptions{})
			if err != nil {
				return nil, err
			}
			p.commit, p.close, p.led = pp.CommitBlock, pp.Close, pp.Ledger
		} else {
			sp, err := peer.NewDurableSWPeer(vcfg, kvs, pdir, peer.DurableOptions{})
			if err != nil {
				return nil, err
			}
			p.commit, p.close, p.led = sp.CommitBlock, sp.Close, sp.Ledger
		}
	}

	w := client.SmallbankWorkload{Accounts: accounts}
	stores := []statedb.KVS{s.peers[0].store, s.peers[1].store}
	for _, e := range s.endorsers {
		stores = append(stores, e.Store())
	}
	if err := client.Bootstrap(w, registry, stores...); err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		tap := &submitTap{ord: s.ord}
		s.drivers = append(s.drivers, &e2eDriver{
			stack:  s,
			tap:    tap,
			driver: client.NewDriver(n.client, s.endorsers, tap, w, cfg.Channel, seed*1000+int64(i)),
		})
	}

	s.svc = delivery.NewService(delivery.Options{
		Window:  cfg.Delivery.Window,
		History: delivery.LedgerSource(s.ordLed),
	})
	for _, p := range s.peers {
		dial := delivery.GossipDialer(p.ln.Addr())
		tr, err := dial()
		if err != nil {
			return nil, err
		}
		if err := s.svc.Register(p.name, tr, delivery.PeerOptions{Dial: dial}); err != nil {
			return nil, err
		}
	}
	s.ord.OnDeliver(func(b *blk) error {
		t := deliverTimes{Num: b.Header.Number, Entry: time.Now()}
		if _, err := s.ordLed.Commit(b); err != nil {
			return fmt.Errorf("orderer ledger: %w", err)
		}
		t.Appended = time.Now()
		err := s.svc.Publish(b)
		t.Published = time.Now()
		for _, st := range s.svc.Stats() {
			if st.Lag > t.MaxLag {
				t.MaxLag = st.Lag
			}
		}
		if s.onDeliver != nil {
			s.onDeliver(t)
		}
		return err
	})
	for i, p := range s.peers {
		go s.commitLoop(p, i == 0)
	}
	s.started, ok = true, true
	return s, nil
}

// commitLoop drains one peer's gossip intake in delivery order. Delivery is
// at-least-once, so a block below the expected height is a duplicate.
func (s *e2eStack) commitLoop(p *gossipPeer, observer bool) {
	defer close(p.done)
	var next uint64
	for b := range p.ln.Blocks() {
		if b.Header.Number < next {
			continue
		}
		if b.Header.Number > next {
			p.fail(fmt.Errorf("%s: delivery gap: got block %d, expected %d", p.name, b.Header.Number, next))
			return
		}
		obs := observation{Received: time.Now()}
		res, err := p.commit(b)
		if err != nil {
			p.fail(fmt.Errorf("%s: commit block %d: %w", p.name, b.Header.Number, err))
			return
		}
		obs.Committed = time.Now()
		next++
		if observer {
			s.applyMu.Lock()
			obs.ApplyWait = time.Since(obs.Committed)
			for _, e := range s.endorsers {
				if err := client.ApplyBlock(e.Store(), b, res.Flags); err != nil {
					s.applyMu.Unlock()
					p.fail(err)
					return
				}
			}
			s.applyMu.Unlock()
			obs.Out = toCommitOut(res)
			if s.onCommit != nil {
				s.onCommit(b, obs)
			}
		}
		p.mu.Lock()
		p.committed = next
		p.mu.Unlock()
	}
}

// e2eVerdict is the end state of an e2e run, for the correctness gates.
type e2eVerdict struct {
	OrdererHeight uint64
	PeerHeights   [2]uint64
	Converged     bool // equal height, state hash and last commit hash
	Err           error
}

// settle waits until both peers reach the orderer's height (or the deadline
// passes) and compares their end state.
func (s *e2eStack) settle(deadline time.Duration) e2eVerdict {
	v := e2eVerdict{OrdererHeight: s.ord.Height()}
	stop := time.Now().Add(deadline)
	for {
		for i, p := range s.peers {
			p.mu.Lock()
			v.PeerHeights[i] = p.committed
			p.mu.Unlock()
		}
		if (v.PeerHeights[0] == v.OrdererHeight && v.PeerHeights[1] == v.OrdererHeight) || time.Now().After(stop) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	var errs []error
	for _, p := range s.peers {
		p.mu.Lock()
		errs = append(errs, p.err)
		p.mu.Unlock()
		if n := p.ln.DecodeErrors(); n > 0 {
			errs = append(errs, fmt.Errorf("%s: %d gossip decode errors", p.name, n))
		}
	}
	errs = append(errs, s.ord.Err(), s.svc.Err())
	v.Err = errors.Join(errs...)
	a, b := s.peers[0], s.peers[1]
	v.Converged = v.PeerHeights[0] == v.OrdererHeight && v.PeerHeights[1] == v.OrdererHeight &&
		bytes.Equal(statedb.SnapshotHash(a.store.Snapshot()), statedb.SnapshotHash(b.store.Snapshot())) &&
		bytes.Equal(a.led.LastCommitHash(), b.led.LastCommitHash())
	return v
}

// setCounting switches the observer's state-database access counters.
func (s *e2eStack) setCounting(on bool) { s.peers[0].store.SetCountAccesses(on) }

func (s *e2eStack) observerAccesses() (reads, writes int) { return s.peers[0].store.AccessCounts() }

func (s *e2eStack) ordererLedgerBytes() int64 { return s.ordLed.BytesWritten() }

// probe runs the direct-call probes against the orderer's ledger, with the
// newest ordered block as the sample.
func (s *e2eStack) probe(seed int64) (probeResults, error) {
	h := s.ordLed.Height()
	if h == 0 {
		return probeResults{}, errors.New("probe: the orderer ledger is empty")
	}
	sample, err := s.ordLed.Get(h - 1)
	if err != nil {
		return probeResults{}, err
	}
	return s.net.runProbes(seed, s.ordLed, sample)
}

// observerDelivery reports the wire bytes delivered to the observer so far.
func (s *e2eStack) observerDelivery() int64 {
	for _, st := range s.svc.Stats() {
		if st.Name == s.peers[0].name {
			return st.Bytes
		}
	}
	return 0
}

// close tears the stack down in dependency order and waits for every
// goroutine it started. It is safe on a partially built stack.
func (s *e2eStack) close() error {
	var errs []error
	if s.ord != nil {
		errs = append(errs, s.ord.Stop())
	}
	if s.raft != nil {
		s.raft.Stop()
	}
	if s.svc != nil {
		errs = append(errs, s.svc.Close())
	}
	for _, p := range s.peers {
		if p == nil {
			continue
		}
		errs = append(errs, p.ln.Close())
		if s.started {
			<-p.done // the commit loop ends when its intake closes
		}
		if p.close != nil {
			errs = append(errs, p.close())
		}
	}
	if s.ordLed != nil {
		errs = append(errs, s.ordLed.Close())
	}
	return errors.Join(errs...)
}
