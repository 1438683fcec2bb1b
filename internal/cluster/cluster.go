// Package cluster wires the whole delivery-side stack end to end: an
// open-loop client load (internal/load) submits endorsed transactions to
// a Raft-backed ordering service, whose blocks fan out through the
// non-blocking delivery service (internal/delivery) to N software peers
// over the Gossip wire format and optionally to a BMac peer over the
// custom protocol — the paper §3.5 dual path at cluster scale. Each
// software peer validates with one of the three commit paths (sequential,
// parallel pipelined, pipelined over the hybrid hardware/host database),
// and the harness reports throughput, per-tx end-to-end commit latency
// (p50/p95/p99) and per-peer delivery statistics, including the
// isolation of an artificially slow peer. The shared part of the stack —
// endorsers, raft, orderer and the BMac peer — comes from Build, which
// the root package's testbed uses too.
//
// Peers are durable: every block lands in a per-peer disk ledger before it
// counts as committed, state checkpoints bound recovery replay, and the
// orderer keeps its own ledger that backs the delivery service's catch-up
// source. A run's faults are a Scenario: an ordered script of steps (kill,
// corrupt-segment, restart, sever, heal, kill-leader, corrupt-frames,
// slow-disk), each firing at a height or once its victim has fallen off
// the retained window. The named script "churn" exercises the whole
// recovery story: one fast peer is killed mid-run, restarted from its
// checkpoint + ledger replay, caught up through the orderer's ledger, and
// must finish with a state hash bit-identical to the peers that never
// died. Every scenario ends at the same gate: the fast peers converge.
package cluster

import (
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/delivery"
	"bmac/internal/endorser"
	"bmac/internal/gossip"
	"bmac/internal/ledger"
	"bmac/internal/load"
	"bmac/internal/peer"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// Validation path modes for the software peers.
const (
	Sequential = "sequential" // the engine at 4 vscc workers, the paper's baseline
	Pipelined  = "pipelined"  // the engine sized by the pipeline section, over an in-memory store
	Hybrid     = "hybrid"     // the pipelined preset over the §5 hybrid database, which the engine prefetches into
)

// modes maps each validation path mode to what opens its peers: the engine
// preset and the state-database backend.
var modes = map[string]struct {
	engine  func(*config.Config) (pipeline.Config, error)
	backend string
}{
	Sequential: {func(c *config.Config) (pipeline.Config, error) { return c.ValidatorConfig(4) }, config.BackendMemory},
	Pipelined:  {(*config.Config).PipelineConfig, config.BackendMemory},
	Hybrid:     {(*config.Config).PipelineConfig, config.BackendHybrid},
}

// Modes lists the validation path modes in presentation order.
func Modes() []string { return []string{Sequential, Pipelined, Hybrid} }

// Options parameterize one cluster run.
type Options struct {
	// Mode selects the software peers' validation path (default
	// Sequential).
	Mode string
	// Peers is the number of software gossip peers (default 3).
	Peers int
	// SlowPeers marks that many peers, taken from the end, as
	// artificially slow (SlowDelay per block on their delivery pipe).
	SlowPeers int
	// SlowDelay is the per-block delay of a slow peer (default 20ms). A
	// slow peer that overruns the delivery window skips the lost blocks
	// (delivery.DropBlocks), so the run completes while the drop counter
	// shows the overload; fast peers are disconnected (delivery.Disconnect).
	SlowDelay time.Duration
	// BMacPeer includes a hardware peer fed over the BMac protocol.
	BMacPeer bool
	// RaftNodes sizes the ordering service's Raft cluster (default 1,
	// the paper's setup; 3 exercises majority replication).
	RaftNodes int
	// Txs is the total number of transactions to submit (default 60).
	Txs int
	// Rate is the aggregate open-loop arrival rate in tx/s (<= 0: no
	// pacing).
	Rate float64
	// Arrival is the inter-arrival distribution (load.Poisson default).
	Arrival string
	// Clients is the number of concurrent load clients (default 2).
	Clients int
	// Accounts sizes the smallbank state (default 64).
	Accounts int
	// Skew is the smallbank hot-account Zipf exponent (0 = uniform).
	Skew float64
	// Seed makes the workload and arrivals deterministic.
	Seed int64
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// Scenario is the script of faults played against the run (see
	// Script for the named ones); nil runs undisturbed.
	Scenario Scenario
	// Adversary injects hostile transactions (invalid signatures, garbage
	// payloads, forged endorsements, replayed double-spends) at this
	// fraction of total submitted traffic (0 disables; see internal/chaos).
	Adversary float64
	// Recorder, when set, receives the per-block lifecycle trace (an
	// injected recorder lets bmacnet serve /trace live while the run is in
	// flight). When nil and the config's telemetry plane is enabled, the
	// run creates its own per-run recorder, so block numbers never collide
	// across consecutive runs on one Config.
	Recorder *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.Mode == "" {
		o.Mode = Sequential
	}
	if o.Peers == 0 {
		o.Peers = 3
	}
	if o.SlowDelay == 0 {
		o.SlowDelay = 20 * time.Millisecond
	}
	if o.RaftNodes == 0 {
		o.RaftNodes = 1
	}
	if o.Txs == 0 {
		o.Txs = 60
	}
	if o.Clients == 0 {
		o.Clients = 2
	}
	if o.Accounts == 0 {
		o.Accounts = 64
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// PeerReport is one software peer's end-of-run summary.
type PeerReport struct {
	Name     string
	Slow     bool
	Blocks   int // blocks committed
	Txs      int // envelopes committed
	ValidTxs int
	Delivery delivery.PeerStats
	// Height is the peer's final ledger height.
	Height uint64
	// Ledger is the peer's segment-store summary: live/sealed segment
	// counts, prune floor, and the session's seal/quarantine/restore/prune
	// and fault-retry counters.
	Ledger ledger.Stats
	// StateHash is the hex digest of the peer's final state database
	// (statedb.SnapshotHash) — equal across peers iff their states are
	// bit-identical.
	StateHash string
	// CommitHash is the hex commit-hash chain value of the peer's last
	// ledger block.
	CommitHash string
	// Restarts counts the kills this peer recovered from.
	Restarts int
}

// AdversaryReport summarizes the hostile traffic of one run.
type AdversaryReport struct {
	// Rate is the configured hostile fraction of total traffic.
	Rate float64
	// Injected breaks the hostile envelopes down by kind.
	Injected chaos.AdversaryStats
	// RejectedInvalid is how many committed envelopes the observer peer
	// flag-invalidated — hostile transactions neutralized without
	// forking any peer.
	RejectedInvalid int
}

// Result is the cluster run report.
type Result struct {
	Mode      string
	RaftNodes int
	Submitted int
	Late      int // arrivals that fired behind schedule
	Blocks    int // blocks committed by the observer peer
	Txs       int // envelopes committed by the observer peer
	ValidTxs  int
	// SizeCuts, IdleCuts and TimeoutCuts count the orderer's batches by the
	// rule that closed them. Batch size tracks load, so a paced run is
	// mostly idle cuts of a few transactions and an unpaced one fills
	// blocks; a timeout cut means raft was leaderless or a block was stuck
	// on its way out of the orderer.
	SizeCuts, IdleCuts, TimeoutCuts int
	Elapsed                         time.Duration
	// HonestElapsed is the time from run start until the observer had
	// committed every honest (client-submitted) transaction. With an
	// adversary, Elapsed additionally covers trailing hostile-only blocks
	// ordered after the honest load completed, so honest goodput
	// comparisons should use HonestElapsed.
	HonestElapsed time.Duration
	TPS           float64 // committed envelopes/s at the observer peer
	// SWLatency is the per-tx end-to-end latency (scheduled arrival ->
	// committed on the observer software peer).
	SWLatency telemetry.Summary
	// HWLatency is the same measured at the BMac peer (zero without one).
	HWLatency telemetry.Summary
	Peers     []PeerReport
	// BMacDelivery is the hardware path's delivery pipe (zero value
	// without a BMac peer).
	BMacDelivery delivery.PeerStats
	// Verifications counts the signature checks the observer peer ran over
	// the blocks it committed (validator.Breakdown.ECDSACount), Signatures
	// the signatures those blocks carry (validator.CarriedSignatures). A
	// peer verifies no signature its blocks do not carry, an undecodable
	// envelope's included, so Verifications ≤ Signatures.
	Verifications, Signatures int
	// BMacHeight and BMacCommitHash are the BMac peer's ledger height and
	// last commit hash (zero without one).
	BMacHeight     uint64
	BMacCommitHash string
	// Converged reports whether every fast peer finished with the same
	// ledger height, state hash and commit hash (slow peers may lag or
	// drop by design and are excluded), and the BMac peer, when there is
	// one, with the observer's height and commit hash.
	Converged bool
	// Events is the scenario's timeline, in the order the steps fired
	// (the steps installed at build time first).
	Events []Event
	// Adversary is the hostile-traffic summary (nil when Options.Adversary
	// is 0).
	Adversary *AdversaryReport
	// Budget is the per-stage latency budget aggregated from the block
	// lifecycle trace: where the end-to-end microseconds went, per stage,
	// with its coverage of summed e2e latency. Nil without telemetry.
	Budget *telemetry.Budget
	// TraceEvents counts the spans the flight recorder captured.
	TraceEvents int
	// TraceFile is the JSONL trace path written (config telemetry.
	// trace_file), empty when none was configured.
	TraceFile string
	// MetricsText is the final Prometheus exposition snapshot of the
	// config's registry ("" without telemetry). The ledger_*, delivery_*,
	// orderer_*, statedb_* and chaos_* series and load_*_txs_total are
	// per-run: each reads a counter of this run's subsystems (a restarted
	// peer's series report its new session). The validator_*,
	// fabcrypto_* and load_e2e_seconds series accumulate over every run on
	// one Config: the histograms and engine totals live in the registry,
	// and the caches are shared.
	MetricsText string
}

// Peer returns the named peer's report, nil when there is none.
func (r *Result) Peer(name string) *PeerReport {
	for i := range r.Peers {
		if r.Peers[i].Name == name {
			return &r.Peers[i]
		}
	}
	return nil
}

// Event returns the first event of a step action, nil when there is none.
func (r *Result) Event(action string) *Event {
	for i := range r.Events {
		if r.Events[i].Step.Action == action {
			return &r.Events[i]
		}
	}
	return nil
}

// swPeer is one software gossip peer: listener, commit engine, counters.
type swPeer struct {
	name string
	slow bool
	dir  string
	ln   *gossip.Listener
	peer *peer.Peer
	done chan struct{} // closed when commitLoop returns

	mu         sync.Mutex
	blocks     int
	txs        int
	validTxs   int
	verifies   int    // the observer's Result.Verifications
	sigs       int    // and Result.Signatures
	counted    uint64 // height up to which commitLoop has counted blocks into the fields above
	restarts   int
	lastCommit time.Time
	err        error
}

// kill closes the peer's listener, waits for its commit loop to drain the
// intake, and closes the peer, returning the ledger height it stopped at.
func (p *swPeer) kill() (uint64, error) {
	p.ln.Close() // bmaclint:allow errdiscard (teardown: listener close error is unactionable)
	<-p.done
	h := p.peer.Height()
	return h, p.peer.Close()
}

// peerAddr is a mutable gossip dial target: a restarted peer comes back on
// a fresh listener, and the delivery pipe's redial must follow it there.
type peerAddr = atomic.Pointer[string]

func listenAddr(p *swPeer) *string { a := p.ln.Addr(); return &a }

// gossipDialer dials the peer's current address, wrapping the transport
// with the artificial slow-peer delay when one is configured.
func gossipDialer(a *peerAddr, slowDelay time.Duration) func() (delivery.Transport, error) {
	return func() (delivery.Transport, error) {
		tr, err := delivery.DialGossip(*a.Load())
		if err != nil {
			return nil, err
		}
		if slowDelay > 0 {
			return delivery.Slowed(tr, slowDelay), nil
		}
		return tr, nil
	}
}

func (p *swPeer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Run executes one cluster experiment: build, bootstrap, drive while the
// scenario plays, drain, report. dir receives the peers' ledgers.
func Run(cfg *config.Config, opts Options, dir string) (*Result, error) {
	opts = opts.withDefaults()
	if opts.SlowPeers >= opts.Peers {
		return nil, fmt.Errorf("cluster: %d slow peers need at least %d peers", opts.SlowPeers, opts.SlowPeers+1)
	}
	if err := opts.Scenario.check(opts); err != nil {
		return nil, err
	}
	// The mode opens the peers' store; a statedb backend configured apart
	// from it would be silently replaced.
	mode, ok := modes[opts.Mode]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown mode %q (valid: %v)", opts.Mode, Modes())
	}
	if b := cfg.StateDB.Backend; b != "" && b != mode.backend {
		return nil, fmt.Errorf("cluster: statedb backend %q conflicts with path %s, which runs its peers on %q", b, opts.Mode, mode.backend)
	}
	// With telemetry off, the load-driving hot path never reads the statedb
	// access counters, so they are pure per-access overhead: run with
	// counting off. With telemetry on the registry exports them as per-peer
	// gauges, so they stay at their configured setting.
	hot := *cfg
	if !hot.Telemetry.Enabled {
		hot.StateDB.NoCountAccesses = true
	}
	cfg = &hot
	reg := cfg.TelemetryRegistry() // nil when the telemetry plane is off
	rec := opts.Recorder
	if rec == nil && cfg.Telemetry.Enabled {
		rec = telemetry.NewRecorder()
	}
	// Endorsers, a RaftNodes-node ordering service with the orderer bound
	// to the elected leader, and the optional BMac peer.
	st, err := Build(cfg, StackOptions{RaftNodes: opts.RaftNodes, BatchTimeout: 30 * time.Millisecond, BMac: opts.BMacPeer}, dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ord, endorsers, bmacPeer := st.Orderer, st.Endorsers, st.BMacPeer
	// The orderer's own block ledger: every created block is appended here
	// before it enters the delivery window, so the delivery service can
	// stream arbitrarily old blocks to a peer that fell off the window
	// (the ledger-backed catch-up source).
	ordLed, err := ledger.Open(filepath.Join(dir, "orderer"), ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster: orderer ledger: %w", err)
	}
	defer ordLed.Close()

	// The scenario's instruments exist before the peers: a slow-disk shim
	// goes in at peer construction, the severable and corrupting links at
	// delivery registration.
	sp := newPlayer(opts.Scenario, reg)

	// Software peers behind real gossip TCP listeners.
	peers := make([]*swPeer, 0, opts.Peers)
	defer func() {
		for _, p := range peers {
			p.kill() // bmaclint:allow errdiscard (teardown: nothing left to do with a close error)
		}
	}()
	// Delivery service: every path is one per-peer pipe, with the
	// orderer's ledger as the catch-up source behind the window.
	svc := delivery.NewService(delivery.Options{
		Window:   cfg.Delivery.Window,
		History:  delivery.LedgerSource(ordLed),
		Registry: reg,
	})
	defer svc.Close()
	// Open-loop load.
	gen, err := load.New(load.Options{
		Rate:    opts.Rate,
		Arrival: opts.Arrival,
		Count:   opts.Txs,
		Seed:    opts.Seed,
		E2E:     reg.Histogram("load_e2e_seconds"),
	})
	if err != nil {
		return nil, err
	}
	reg.GaugeFunc("load_submitted_txs_total", func() int64 { n, _, _ := gen.Stats(); return int64(n) })
	reg.GaugeFunc("load_committed_txs_total", func() int64 { _, n, _ := gen.Stats(); return int64(n) })
	reg.GaugeFunc("load_late_txs_total", func() int64 { _, _, n := gen.Stats(); return int64(n) })
	// What the peers' commit loops reach. Peer 0, the observer, applies
	// blocks to the endorser stores under fw.applyMu, whose read side the
	// drivers hold while they gather a proposal's endorsements.
	fw := &followers{svc: svc, rec: rec, endorsers: endorsers, gen: gen}
	// Per-peer state-database access counts and ledger segment counts,
	// read at scrape time. A restart re-registers the replacement peer
	// under the same name, so its series then report the new session.
	registerPeer := func(p *swPeer) {
		st, led := p.peer.Engine.Store(), p.peer.Ledger
		gauge := func(base string, read func() int64) {
			reg.GaugeFunc(telemetry.Name(base, "peer", p.name), read)
		}
		gauge("statedb_reads_total", func() int64 { r, _ := st.AccessCounts(); return int64(r) })
		gauge("statedb_writes_total", func() int64 { _, w := st.AccessCounts(); return int64(w) })
		ledgerStat := func(base string, read func(ledger.Stats) int64) {
			gauge(base, func() int64 { return read(led.Stats()) })
		}
		ledgerStat("ledger_segments_sealed_total", func(s ledger.Stats) int64 { return s.Sealed })
		ledgerStat("ledger_segments_quarantined_total", func(s ledger.Stats) int64 { return s.Quarantined })
		ledgerStat("ledger_segments_restored_total", func(s ledger.Stats) int64 { return s.RestoredSegs })
		ledgerStat("ledger_blocks_restored_total", func(s ledger.Stats) int64 { return s.RestoredBlocks })
		ledgerStat("ledger_segments_pruned_total", func(s ledger.Stats) int64 { return s.Pruned })
		ledgerStat("ledger_index_rebuilds_total", func(s ledger.Stats) int64 { return s.IndexRebuilds })
	}
	for i := 0; i < opts.Peers; i++ {
		p, err := newSWPeer(cfg, opts, i, filepath.Join(dir, fmt.Sprintf("peer%d", i)), sp.disks[i], fw)
		if err != nil {
			return nil, err
		}
		peers = append(peers, p)
		registerPeer(p)
	}

	// Bootstrap genesis state everywhere.
	w := client.SmallbankWorkload{Accounts: opts.Accounts, Skew: opts.Skew}
	stores := make([]statedb.KVS, len(peers))
	for i, p := range peers {
		stores[i] = p.peer.Engine.Store()
	}
	if err := st.Bootstrap(w, stores...); err != nil {
		return nil, err
	}
	// Genesis checkpoint: the bootstrap state exists in no ledger block,
	// so a peer restarted before its first periodic checkpoint must find
	// it on disk.
	for _, p := range peers {
		if err := p.peer.Checkpoint(); err != nil {
			return nil, fmt.Errorf("cluster: genesis checkpoint for %s: %w", p.name, err)
		}
	}

	clientID, err := st.Network.LookupByName("client0." + cfg.Orgs[0].Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: first org needs a client: %w", err)
	}
	// The adversary taps the honest path to the orderer (capturing
	// envelopes for its replay corpus) and wraps every load client, so
	// hostile traffic rides the same open-loop schedule as honest traffic
	// at the configured fraction.
	var adv *chaos.Adversary
	var ordSubmit client.Submitter = ord
	if opts.Adversary > 0 {
		adv, err = chaos.NewAdversary(chaos.AdversaryOptions{
			Rate:    opts.Adversary,
			Seed:    opts.Seed,
			Channel: cfg.Channel,
		}, ord)
		if err != nil {
			return nil, err
		}
		ordSubmit = adv.Tap(ord)
	}
	drivers := make([]load.Submitter, opts.Clients)
	for i := range drivers {
		d := client.NewDriver(clientID, endorsers, ordSubmit, w, cfg.Channel, opts.Seed+int64(100+i))
		d.EndorseUnder(fw.applyMu.RLocker())
		drivers[i] = d
		if adv != nil {
			drivers[i] = adv.Wrap(drivers[i])
		}
	}

	// Dial targets are mutable so a restarted peer's pipe follows it to the
	// listener it restarts on.
	addrs := make([]*peerAddr, opts.Peers)
	for i, p := range peers {
		addrs[i] = new(peerAddr)
		addrs[i].Store(listenAddr(p))
		slowDelay := time.Duration(0)
		po := delivery.PeerOptions{Policy: delivery.Disconnect}
		if p.slow {
			slowDelay = opts.SlowDelay
			po.Policy = delivery.DropBlocks
		}
		po.Dial = gossipDialer(addrs[i], slowDelay)
		sp.wire(i, &po, addrs[i])
		t, err := po.Dial()
		if err != nil {
			return nil, err
		}
		if err := svc.Register(peers[i].name, t, po); err != nil {
			return nil, err
		}
	}
	if st.Sender != nil {
		if err := svc.Register("bmac", delivery.NewBMacTransport(st.Sender), delivery.PeerOptions{}); err != nil {
			return nil, err
		}
	}
	// Hostile traffic volume on the scrape endpoint, and how much of it the
	// observer flag-invalidated.
	if adv != nil {
		reg.GaugeFunc("chaos_injected_hostile_total", func() int64 { return adv.Stats().Total() })
		obs := peers[0] // the observer is never a victim; the pointer is stable
		reg.GaugeFunc("chaos_rejected_invalid_total", func() int64 {
			obs.mu.Lock()
			defer obs.mu.Unlock()
			return int64(obs.txs - obs.validTxs)
		})
	}

	// The orderer's only hook appends the block to the orderer ledger
	// (feeding the catch-up source and the hardware latency join) and
	// publishes into the delivery window; it never blocks on a peer.
	ord.OnDeliver(func(b *block.Block) error {
		if _, err := ordLed.Commit(b); err != nil {
			return fmt.Errorf("orderer ledger: %w", err)
		}
		if rec == nil {
			return svc.Publish(b)
		}
		// Flight recorder: the block exists now, so its pre-delivery
		// lifecycle is known. submit = first scheduled arrival → first
		// submit call, endorse = submit calls in flight, order = last
		// submit returned → block created (batch wait + raft + signing),
		// publish = the rest of this hook, fan-out hand-off included. The
		// spans are anchored end-to-start at now, so the trace tiles the
		// timeline without gaps.
		now := time.Now()
		num := b.Header.Number
		var minSched, minStart, maxEnd time.Time
		for i := range b.Envelopes {
			id, err := block.EnvelopeTxID(&b.Envelopes[i])
			if err != nil {
				continue
			}
			sub, ok := gen.SubmitRecord(id)
			if !ok {
				continue
			}
			if minSched.IsZero() || sub.Scheduled.Before(minSched) {
				minSched = sub.Scheduled
			}
			if minStart.IsZero() || sub.Start.Before(minStart) {
				minStart = sub.Start
			}
			if sub.End.After(maxEnd) {
				maxEnd = sub.End
			}
		}
		// A submit record can trail its transaction into a block (the
		// generator stores it after SubmitTx returns); fall back so the
		// trace stays contiguous rather than dropping the block.
		if minStart.IsZero() {
			minSched, minStart, maxEnd = now, now, now
		}
		rec.Stamp(num, telemetry.StageSubmit, "", minSched, minStart, len(b.Envelopes))
		rec.Stamp(num, telemetry.StageEndorse, "", minStart, maxEnd, 0)
		rec.Stamp(num, telemetry.StageOrder, "", maxEnd, now, 0)
		err := svc.Publish(b)
		rec.Stamp(num, telemetry.StagePublish, "", now, time.Now(), 0)
		return err
	})

	// The BMac peer's commits are only timed here; the report joins them
	// with the submit records once every submission is recorded.
	var (
		hwMu sync.Mutex
		hwAt = make(map[uint64]time.Time) // block number -> BMac commit time
	)
	if bmacPeer != nil {
		go func() {
			for res := range bmacPeer.Results() {
				at := time.Now()
				hwMu.Lock()
				hwAt[res.BlockNum] = at
				hwMu.Unlock()
			}
		}()
	}

	// The scenario plays from the wait loop below. A restart reopens the
	// killed peer's directory: checkpoint + ledger replay rebuild its
	// state, and its delivery pipe resumes from what it Wants: its first
	// quarantined hole, whose redelivery is the archive refetch, or its
	// height. Rewind MUST land before the new address is published: a pipe
	// that reconnected first would deliver from its stale pre-kill cursor,
	// and a racing send could clobber the moved cursor.
	sp.peers, sp.svc, sp.window, sp.stack = peers, svc, uint64(cfg.Delivery.Window), st
	sp.restart = func(i int) (uint64, error) {
		cp := peers[i]
		np, err := newSWPeer(cfg, opts, i, cp.dir, sp.disks[i], fw)
		if err != nil {
			return 0, err
		}
		// Carry the pre-crash counters so the report covers the peer's
		// whole run (cp's commitLoop returned before its kill did).
		np.mu.Lock()
		np.blocks, np.txs, np.validTxs = cp.blocks, cp.txs, cp.validTxs
		np.verifies, np.sigs = cp.verifies, cp.sigs
		np.restarts = cp.restarts + 1
		np.lastCommit = cp.lastCommit
		np.mu.Unlock()
		peers[i] = np
		registerPeer(np)
		if err := svc.Rewind(np.name, np.peer.Want()); err != nil {
			return 0, err
		}
		addrs[i].Store(listenAddr(np))
		return np.peer.Height(), nil
	}

	// Drive the load concurrently with the wait loop (so a step can strike
	// mid-submission), then wait for the observer peer to commit every
	// submitted transaction (valid or invalidated — each lands in a block
	// either way) and for the scenario to play out.
	start := time.Now()
	loadErr := make(chan error, 1)
	go func() { loadErr <- gen.Run(drivers) }()
	var (
		runErr     error
		loadDone   bool
		submitted  int
		late       int
		honestDone time.Time
	)
	deadline := time.Now().Add(opts.Timeout)
	for {
		if !loadDone {
			select {
			case runErr = <-loadErr:
				loadDone = true
				submitted, _, late = gen.Stats()
			default:
			}
		}
		peers[0].mu.Lock()
		committed := peers[0].txs
		err := peers[0].err
		peers[0].mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("cluster: observer peer: %w", err)
		}
		// With an adversary the observer's envelope count includes hostile
		// traffic, so completion is judged by honest transactions matched
		// back to their submissions.
		if adv != nil {
			_, committed, _ = gen.Stats()
		}
		// Once everything has committed, the steps the run finished before
		// (tiny runs) fire without waiting for their triggers: even a kill
		// with an immediate restart exercises the recovery path, so the
		// convergence gate means something.
		over := loadDone && committed >= submitted
		if over && honestDone.IsZero() {
			honestDone = time.Now()
		}
		played, err := sp.tick(over)
		if err != nil {
			return nil, err
		}
		if over && played {
			break
		}
		if oerr := ord.Err(); oerr != nil {
			return nil, fmt.Errorf("cluster: orderer: %w", oerr)
		}
		// A dead pipe on a fast peer is fatal; a slow peer is allowed to
		// die of its configured policy (that is the experiment).
		for _, st := range svc.Stats() {
			if st.Err != nil && !slices.ContainsFunc(peers, func(p *swPeer) bool { return p.slow && p.name == st.Name }) {
				return nil, fmt.Errorf("cluster: delivery to %s: %w", st.Name, st.Err)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: after %v the observer committed %d/%d txs and the scenario reached step %d/%d",
				opts.Timeout, committed, submitted, sp.next, len(sp.steps))
		}
		time.Sleep(time.Millisecond)
	}
	// Snapshot delivery stats now, while the contrast is visible: the
	// observer has everything, so a fast peer's lag is ~0 while the slow
	// peer still shows its backlog and drops.
	stats := make(map[string]delivery.PeerStats, opts.Peers+1)
	for _, st := range svc.Stats() {
		stats[st.Name] = st
	}
	// Let the remaining (fast and slow) pipes finish their backlog; the
	// slow peer's drop counter, not the drain, absorbs its overload.
	drainErr := svc.Drain(opts.Timeout)
	// Zero delivery lag only means the frames reached the sockets; wait
	// for every fast peer's ledger to reach the published height. The
	// target is re-read each pass — with an adversary, trailing
	// hostile-only blocks can still be ordered after the honest load
	// completes, so the loop additionally requires the height to hold
	// still briefly before calling the run settled. A peer stalled
	// short of the target (a corrupted tail frame with no follow-on block
	// to expose the gap to Follow) gets its delivery cursor rewound to
	// what it Wants. The BMac peer settles once the hardware pipeline has
	// committed the tail: the protocol sender returned as soon as packets
	// entered the link.
	settleDeadline := time.Now().Add(opts.Timeout)
	stableSince := time.Now()
	lastTarget := svc.Height()
	lastH := make(map[string]uint64, len(peers))
	lastHAt := make(map[string]time.Time, len(peers))
	for _, p := range peers {
		if !p.slow {
			lastH[p.name], lastHAt[p.name] = p.peer.Ledger.Height(), time.Now()
		}
	}
	for {
		target := svc.Height()
		if target != lastTarget {
			lastTarget = target
			stableSince = time.Now()
		}
		allAt := true
		for _, p := range peers {
			if p.slow {
				continue
			}
			p.mu.Lock()
			perr, counted := p.err, p.counted
			p.mu.Unlock()
			if perr != nil {
				continue // dead peers are reported by the convergence gate
			}
			// A block is in the ledger before CommitBlock returns (a due
			// checkpoint still follows) and in the peer's counters only
			// after; the report below reads the counters, so a peer has
			// settled at the lower of the two heights.
			st := p.peer.Ledger.Stats()
			h := min(st.Height, counted)
			// A quarantined hole below the height also blocks settling:
			// the archive refetch must complete before the convergence
			// gate can call the run bit-identical.
			if h >= target && st.MissingBlocks == 0 {
				continue
			}
			allAt = false
			// Progress is commit height plus restored archive blocks, so a
			// peer mid-backfill does not read as stalled.
			prog := h + uint64(st.RestoredBlocks)
			if lastH[p.name] != prog {
				lastH[p.name], lastHAt[p.name] = prog, time.Now()
			} else if time.Since(lastHAt[p.name]) > 200*time.Millisecond {
				svc.Rewind(p.name, p.peer.Want()) // bmaclint:allow errdiscard (best-effort nudge; the settle deadline bounds a stuck peer)
				lastHAt[p.name] = time.Now()
			}
		}
		if bmacPeer != nil {
			hwMu.Lock()
			allAt = allAt && uint64(len(hwAt)) >= target
			hwMu.Unlock()
		}
		if allAt && (adv == nil || time.Since(stableSince) > 150*time.Millisecond) || time.Now().After(settleDeadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Report.
	res := &Result{
		Mode:      opts.Mode,
		RaftNodes: opts.RaftNodes,
		Submitted: submitted,
		Late:      late,
		SWLatency: gen.Latency(),
		Events:    sp.report(),
	}
	res.SizeCuts, res.IdleCuts, res.TimeoutCuts = ord.Cuts()
	peers[0].mu.Lock()
	res.Blocks = peers[0].blocks
	res.Txs = peers[0].txs
	res.ValidTxs = peers[0].validTxs
	res.Verifications, res.Signatures = peers[0].verifies, peers[0].sigs
	res.Elapsed = peers[0].lastCommit.Sub(start)
	res.HonestElapsed = honestDone.Sub(start)
	peers[0].mu.Unlock()
	if res.Elapsed > 0 {
		res.TPS = float64(res.Txs) / res.Elapsed.Seconds()
	}
	// Final per-peer delivery stats (the early snapshot preserved the
	// slow-peer contrast; catch-up counters only settle after the drain).
	finalStats := make(map[string]delivery.PeerStats, opts.Peers+1)
	for _, st := range svc.Stats() {
		finalStats[st.Name] = st
	}
	for _, p := range peers {
		p.mu.Lock()
		pr := PeerReport{
			Name:     p.name,
			Slow:     p.slow,
			Blocks:   p.blocks,
			Txs:      p.txs,
			ValidTxs: p.validTxs,
			Delivery: stats[p.name],
			Restarts: p.restarts,
		}
		p.mu.Unlock()
		pr.Delivery.CaughtUp = finalStats[p.name].CaughtUp
		pr.Height = p.peer.Ledger.Height()
		pr.Ledger = p.peer.Ledger.Stats()
		pr.StateHash = hex.EncodeToString(statedb.SnapshotHash(p.peer.Engine.Store().Snapshot()))
		pr.CommitHash = hex.EncodeToString(p.peer.Ledger.LastCommitHash())
		res.Peers = append(res.Peers, pr)
	}
	// Convergence: every fast peer must have reached the observer's chain
	// and state; slow peers may lag or drop by design.
	res.Converged = true
	for _, pr := range res.Peers {
		if obs := res.Peers[0]; !pr.Slow && (pr.Height != obs.Height || pr.StateHash != obs.StateHash || pr.CommitHash != obs.CommitHash) {
			res.Converged = false
		}
	}
	if adv != nil {
		res.Adversary = &AdversaryReport{
			Rate:            opts.Adversary,
			Injected:        adv.Stats(),
			RejectedInvalid: res.Txs - res.ValidTxs,
		}
	}
	if bmacPeer != nil {
		res.BMacHeight = bmacPeer.Ledger.Height()
		res.BMacCommitHash = hex.EncodeToString(bmacPeer.Ledger.LastCommitHash())
		if obs := res.Peers[0]; res.BMacHeight != obs.Height || res.BMacCommitHash != obs.CommitHash {
			res.Converged = false
		}
		res.BMacDelivery = stats["bmac"]
		// Every submission is recorded by now (gen.Run returned): read each
		// committed block back from the orderer ledger and time its
		// transactions from their scheduled arrival.
		hwMu.Lock()
		commits := maps.Clone(hwAt)
		hwMu.Unlock()
		var hwLatencies []time.Duration
		for num, at := range commits {
			b, err := ordLed.Get(num)
			if err != nil {
				return res, fmt.Errorf("cluster: hardware latency: %w", err)
			}
			for i := range b.Envelopes {
				id, err := block.EnvelopeTxID(&b.Envelopes[i])
				if err != nil {
					continue
				}
				if sub, ok := gen.SubmitRecord(id); ok {
					hwLatencies = append(hwLatencies, at.Sub(sub.Scheduled))
				}
			}
		}
		res.HWLatency = telemetry.Summarize(hwLatencies)
	}
	if rec != nil {
		res.Budget = rec.Budget()
		res.TraceEvents = rec.Len()
		if path := cfg.Telemetry.TraceFile; path != "" {
			f, err := os.Create(path)
			if err != nil {
				return res, fmt.Errorf("cluster: trace file: %w", err)
			}
			werr := rec.WriteJSONL(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return res, fmt.Errorf("cluster: trace file: %w", werr)
			}
			res.TraceFile = path
		}
	}
	if reg != nil {
		res.MetricsText = reg.Text()
	}
	if runErr != nil {
		return res, fmt.Errorf("cluster: load: %w", runErr)
	}
	if drainErr != nil {
		return res, drainErr
	}
	return res, nil
}

// stampBlock records the observer-side lifecycle spans of one committed
// block. The deliver span runs from the orderer's publish hand-off to the
// block's arrival on this peer's intake; the validation spans are laid out
// sequentially from arrival using the commit path's measured breakdown
// (wall-clock stage windows are not exposed by the pipelined engine, whose
// stages overlap — the sequential layout preserves each stage's share while
// keeping the trace tiled); any residual up to commit completion lands in
// the "other" span so the budget always sums transparently; and the
// enclosing e2e span runs from the first scheduled arrival (stamped by the
// orderer hook) to commit completion.
func (p *swPeer) stampBlock(rec *telemetry.Recorder, b *block.Block, bd *validator.Breakdown, recvAt, commitEnd time.Time) {
	num := b.Header.Number
	if pubEnd, ok := rec.StageEnd(num, telemetry.StagePublish); ok {
		rec.Stamp(num, telemetry.StageDeliver, p.name, pubEnd, recvAt, 0)
	} else {
		rec.Stamp(num, telemetry.StageDeliver, p.name, recvAt, recvAt, 0)
	}
	cur := recvAt
	span := func(stage string, d time.Duration) {
		if d < 0 {
			d = 0
		}
		end := cur.Add(d)
		rec.Stamp(num, stage, p.name, cur, end, 0)
		cur = end
	}
	span(telemetry.StageParse, bd.Unmarshal)
	span(telemetry.StagePrefetch, bd.PrefetchWait)
	span(telemetry.StageVSCC, bd.BlockVerify+bd.VerifyVSCC)
	span(telemetry.StageMVCC, bd.MVCC)
	// StateDB overlaps MVCC (its reads feed validation); only the
	// non-overlapping write side plus the ledger append count as commit.
	span(telemetry.StageCommit, (bd.StateDB-bd.MVCC)+bd.LedgerCommit)
	if commitEnd.After(cur) {
		rec.Stamp(num, telemetry.StageOther, p.name, cur, commitEnd, 0)
	}
	if subStart, ok := rec.StageStart(num, telemetry.StageSubmit); ok {
		rec.Stamp(num, telemetry.StageE2E, p.name, subStart, commitEnd, len(b.Envelopes))
	}
}

// newSWPeer builds one durable software peer for the selected validation
// path. Opening an existing dir recovers: checkpoint + ledger replay seed
// the state, and the peer's Height reports where it resumes from. A
// non-nil df installs the slow-disk fault shim under the peer's ledger
// and checkpoint writers. The peer commits what its listener receives from
// the moment it is built, peer0 as the observer.
func newSWPeer(cfg *config.Config, opts Options, i int, dir string, df *chaos.DiskFault, fw *followers) (*swPeer, error) {
	mode := modes[opts.Mode]
	name := fmt.Sprintf("peer%d", i)
	dopts := DurableOptions(cfg.Durability)
	if df != nil {
		dopts.FS = df
	}
	mcfg := *cfg
	mcfg.StateDB.Backend = mode.backend
	ecfg, err := mode.engine(&mcfg)
	if err != nil {
		return nil, err
	}
	kvs, err := mcfg.NewKVS()
	if err != nil {
		return nil, err
	}
	sw, err := peer.Open(ecfg, kvs, dir, dopts)
	if err != nil {
		return nil, err
	}
	ln, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		sw.Close() // bmaclint:allow errdiscard (error path: cleanup before returning the real error)
		return nil, err
	}
	p := &swPeer{
		name:    name,
		slow:    i >= opts.Peers-opts.SlowPeers,
		dir:     dir,
		ln:      ln,
		peer:    sw,
		done:    make(chan struct{}),
		counted: sw.Height(),
	}
	go p.commitLoop(i == 0, fw)
	return p, nil
}

// followers is what the software peers' receive hooks reach beyond the
// peer: the delivery service that rewinds a fast peer's pipe, and the
// observer's flight recorder, endorsers and load generator.
type followers struct {
	svc       *delivery.Service
	rec       *telemetry.Recorder
	endorsers []*endorser.Endorser
	applyMu   sync.RWMutex // endorser stores: the drivers' endorsement rounds read-side, the observer write-side
	gen       *load.Generator
}

// commitLoop follows the peer's gossip intake (peer.Follow) until kill
// closes it, counting every committed or skipped block. The observer first
// stamps the block's peer-side lifecycle spans, applies its writes to the
// endorser stores (the committer role, under applyMu so that no driver's
// endorsement round straddles a block) and records end-to-end latency. A fast
// peer's gaps and damaged blocks rewind its pipe; a slow DropBlocks peer
// skips by design.
func (p *swPeer) commitLoop(observer bool, fw *followers) {
	defer close(p.done)
	count := func(b *block.Block, valid, verifies, sigs int, at time.Time) {
		p.mu.Lock()
		p.blocks++
		p.txs += len(b.Envelopes)
		p.validTxs += valid
		p.verifies += verifies
		p.sigs += sigs
		p.counted = b.Header.Number + 1
		p.lastCommit = at
		p.mu.Unlock()
	}
	h := peer.Hooks{Skipped: func(b *block.Block) { count(b, 0, 0, 0, time.Now()) }}
	if !p.slow {
		h.Rewind = func(seq uint64) error { return fw.svc.Rewind(p.name, seq) }
	}
	h.Committed = func(b *block.Block, res peer.CommitResult, recvAt time.Time) error {
		at := time.Now()
		if observer {
			if fw.rec != nil {
				p.stampBlock(fw.rec, b, &res.Breakdown, recvAt, at)
			}
			fw.applyMu.Lock()
			for _, e := range fw.endorsers {
				if err := client.ApplyBlock(e.Store(), b, res.Flags); err != nil {
					fw.applyMu.Unlock()
					return err
				}
			}
			fw.applyMu.Unlock()
			fw.gen.ObserveBlock(b, at)
			count(b, block.CountValid(res.Flags), res.Breakdown.ECDSACount, validator.CarriedSignatures(b), at)
			return nil
		}
		count(b, block.CountValid(res.Flags), 0, 0, at)
		return nil
	}
	if err := p.peer.Follow(p.ln.Blocks(), h); err != nil {
		p.fail(err)
	}
}
