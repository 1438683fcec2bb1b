package bmac

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/client"
	"bmac/internal/cluster"
	"bmac/internal/delivery"
	"bmac/internal/endorser"
	"bmac/internal/identity"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/statedb"
)

// Workload generates benchmark transactions; the concrete workloads mirror
// the paper's benchmarks.
type Workload = client.Workload

// The benchmark workloads from the paper's evaluation (§4.2).
type (
	// SmallbankWorkload is the Caliper smallbank banking benchmark.
	SmallbankWorkload = client.SmallbankWorkload
	// DRMWorkload is the Caliper digital-rights-management benchmark.
	DRMWorkload = client.DRMWorkload
	// SplitPayWorkload is the split-payment smallbank variant of Fig 12c.
	SplitPayWorkload = client.SplitPayWorkload
)

// BlockOutcome gathers the validation results of one block from all three
// peers — SW (sequential software), Par (parallel pipelined software) and
// HW (BMac) — with the §4.1 cross-check verdict.
type BlockOutcome struct {
	BlockNum uint64
	TxCount  int
	SW       peer.CommitResult
	Par      peer.CommitResult
	HW       peer.CommitResult
	// Match reports whether flags and commit hash agree across all three
	// peers (the paper found no mismatches; neither should you).
	Match bool
	// HWMatch and ParMatch break the verdict down per peer pair
	// (sequential-vs-BMac and sequential-vs-parallel).
	HWMatch  bool
	ParMatch bool
}

// Testbed is a complete in-process BMac network, the programmatic
// equivalent of the paper's Figure 8 setup: endorser peers per org, a
// Raft-backed ordering service, one software validator peer and one BMac
// peer receiving the same blocks over the two protocols.
type Testbed struct {
	Config    *Config
	Network   *identity.Network
	Endorsers []*endorser.Endorser
	SWPeer    *peer.Peer // the paper's sw_validator: the engine at the testbed's fixed vscc worker count
	ParPeer   *peer.Peer // the same engine sized and prefetched by the pipeline section
	BMacPeer  *peer.BMacPeer
	Orderer   *orderer.Orderer

	stack     *cluster.Stack
	clients   []*client.Driver
	delivery  *delivery.Service
	outcomes  chan BlockOutcome
	stop      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewTestbed builds and starts a network from cfg. Ledgers are created
// under dir. Close the testbed to release resources.
func NewTestbed(cfg *Config, dir string) (_ *Testbed, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Endorsers, a single-node Raft ordering service as in the paper's
	// setup, and the BMac peer. Blocks are cut as soon as the orderer is
	// idle; the batch timeout only bounds the wait behind a stuck
	// cross-check.
	st, err := cluster.Build(cfg, cluster.StackOptions{RaftNodes: 1, BatchTimeout: 50 * time.Millisecond, BMac: true}, dir)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		Config:    cfg,
		Network:   st.Network,
		Endorsers: st.Endorsers,
		BMacPeer:  st.BMacPeer,
		Orderer:   st.Orderer,
		stack:     st,
		outcomes:  make(chan BlockOutcome, 256),
		stop:      make(chan struct{}),
	}
	defer func() {
		if err != nil {
			tb.Close() // bmaclint:allow errdiscard (error path: the build error is the one to report)
		}
	}()

	// Validator peers, durable per the config: reopening a testbed
	// directory replays each peer's ledger (on top of its checkpoints) so
	// the peers resume at their previous height.
	dopts := peer.DurableOptions{
		CheckpointEvery: cfg.Durability.CheckpointEvery,
		SyncEachBlock:   cfg.Durability.SyncEachBlock,
	}
	valCfg, err := cfg.ValidatorConfig(4)
	if err != nil {
		return nil, err
	}
	if tb.SWPeer, err = peer.Open(valCfg, statedb.NewStore(), filepath.Join(dir, "sw_validator"), dopts); err != nil {
		return nil, err
	}
	pipeCfg, err := cfg.PipelineConfig()
	if err != nil {
		return nil, err
	}
	// The parallel peer runs over the configured statedb backend (memory or
	// hybrid hardware/host); the sequential peer stays on the
	// plain store, so every block is also a cross-backend differential check.
	parKVS, err := cfg.NewKVS()
	if err != nil {
		return nil, err
	}
	if tb.ParPeer, err = peer.Open(pipeCfg, parKVS, filepath.Join(dir, "par_validator"), dopts); err != nil {
		return nil, err
	}

	// Blocks flow through the delivery service: the orderer appends to
	// the retained window and any registered network peer rides its own
	// non-blocking pipe. The three-way cross-check itself must see every
	// block, so its pipe uses the Wait policy: once the cross-check falls
	// a full window behind, Publish (and through raft's bounded apply
	// channel, Submit) self-throttles instead of overrunning it.
	tb.delivery = delivery.NewService(delivery.Options{Window: cfg.Delivery.Window})
	if err := tb.delivery.Register("crosscheck", delivery.Func(tb.deliver),
		delivery.PeerOptions{Policy: delivery.Wait}); err != nil {
		return nil, err
	}
	tb.Orderer.OnDeliver(tb.delivery.Publish)
	return tb, nil
}

// Delivery exposes the block delivery service, e.g. to register extra
// gossip peers receiving every block of the run.
func (tb *Testbed) Delivery() *delivery.Service { return tb.delivery }

// deliver is the orderer's delivery hook: BMac protocol first (§3.5), then
// the two software peers, then the three-way cross-check and committer
// updates.
func (tb *Testbed) deliver(b *block.Block) error {
	if _, err := tb.stack.Sender.SendBlock(b); err != nil {
		return err
	}
	// The two software peers are independent (own stores, own ledgers):
	// validate concurrently so delivery pays max(sw, par), not the sum.
	type parOut struct {
		res peer.CommitResult
		err error
	}
	parCh := make(chan parOut, 1)
	go func() {
		res, err := tb.ParPeer.CommitBlock(b)
		parCh <- parOut{res, err}
	}()
	swRes, err := tb.SWPeer.CommitBlock(b)
	par := <-parCh
	if err != nil {
		return err
	}
	if par.err != nil {
		return par.err
	}
	parRes := par.res
	hwRes, ok := <-tb.BMacPeer.Results()
	if !ok {
		return errors.New("bmac: hardware peer stopped")
	}
	// Committer role: endorser stores track the committed state so later
	// simulations read fresh versions.
	for _, e := range tb.Endorsers {
		if err := client.ApplyBlock(e.Store(), b, swRes.Flags); err != nil {
			return err
		}
	}
	outcome := BlockOutcome{
		BlockNum: b.Header.Number,
		TxCount:  len(b.Envelopes),
		SW:       swRes,
		Par:      parRes,
		HW:       hwRes,
		HWMatch: block.FlagsEqual(swRes.Flags, hwRes.Flags) &&
			string(swRes.CommitHash) == string(hwRes.CommitHash),
		ParMatch: block.FlagsEqual(swRes.Flags, parRes.Flags) &&
			string(swRes.CommitHash) == string(parRes.CommitHash),
	}
	outcome.Match = outcome.HWMatch && outcome.ParMatch
	select {
	case tb.outcomes <- outcome:
	case <-tb.stop:
		return errTestbedClosed
	}
	return nil
}

// errTestbedClosed unblocks the cross-check pipe when the testbed closes
// with unconsumed outcomes; it is not a real delivery failure.
var errTestbedClosed = errors.New("bmac: testbed closed")

// Outcomes delivers one BlockOutcome per committed block, in order.
func (tb *Testbed) Outcomes() <-chan BlockOutcome { return tb.outcomes }

// NewClient creates a workload driver whose transactions are endorsed by
// every endorser peer and submitted to the ordering service.
func (tb *Testbed) NewClient(w Workload, seed int64) (*client.Driver, error) {
	clientOrg := tb.Config.Orgs[0].Name
	id, err := tb.Network.LookupByName("client0." + clientOrg)
	if err != nil {
		return nil, fmt.Errorf("bmac: first org needs a client: %w", err)
	}
	d := client.NewDriver(id, tb.Endorsers, tb.Orderer, w, tb.Config.Channel, seed)
	tb.clients = append(tb.clients, d)
	return d, nil
}

// Bootstrap seeds the genesis state for a workload in every store:
// endorsers, both software peers and the BMac peer's in-hardware database.
func (tb *Testbed) Bootstrap(w Workload) error {
	return tb.stack.Bootstrap(w, tb.SWPeer.Engine.Store(), tb.ParPeer.Engine.Store())
}

// ParallelBackendSummary describes the parallel peer's state-database
// backend and, for a hybrid backend, its cache behaviour and prefetch
// volume — the operational view of the §5 scaling proposal.
func (tb *Testbed) ParallelBackendSummary() string {
	switch kvs := tb.ParPeer.Engine.Store().(type) {
	case *statedb.HybridKVS:
		hits, misses, evictions, hostReads, hostWrites := kvs.Stats()
		return fmt.Sprintf(
			"hybrid (capacity %d): %.1f%% hit rate (%d hits, %d misses, %d evictions), host %d reads / %d writes, %d keys prefetched",
			kvs.Capacity(), kvs.HitRate()*100, hits, misses, evictions,
			hostReads, hostWrites, tb.ParPeer.Engine.PrefetchedKeys())
	default:
		reads, writes := kvs.AccessCounts()
		return fmt.Sprintf("memory: %d reads, %d writes", reads, writes)
	}
}

// AwaitBlocks collects n block outcomes or times out.
func (tb *Testbed) AwaitBlocks(n int, timeout time.Duration) ([]BlockOutcome, error) {
	out := make([]BlockOutcome, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case o := <-tb.outcomes:
			out = append(out, o)
		case <-deadline:
			return out, fmt.Errorf("bmac: %d/%d blocks after %v", len(out), n, timeout)
		}
	}
	return out, nil
}

// AwaitTxs collects block outcomes until they hold n transactions, or times
// out. The orderer's batch size tracks load, so how many blocks a run
// becomes is not known in advance; its transaction count is.
func (tb *Testbed) AwaitTxs(n int, timeout time.Duration) ([]BlockOutcome, error) {
	var out []BlockOutcome
	deadline := time.After(timeout)
	for txs := 0; txs < n; {
		select {
		case o := <-tb.outcomes:
			out = append(out, o)
			txs += o.TxCount
		case <-deadline:
			return out, fmt.Errorf("bmac: %d/%d transactions after %v", txs, n, timeout)
		}
	}
	return out, nil
}

// Close shuts the network down. It reports a fatal ordering error or a
// delivery failure, if one occurred. Safe to call more than once; later
// calls return the first call's result.
func (tb *Testbed) Close() error {
	tb.closeOnce.Do(func() {
		close(tb.stop)
		firstErr := tb.Orderer.Stop()
		if tb.delivery != nil {
			if err := tb.delivery.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			// Surface dead delivery pipes, but not the cross-check pipe's
			// own shutdown sentinel; filter per peer — errors.Is on the
			// joined error would discard every real failure alongside it.
			for _, st := range tb.delivery.Stats() {
				if st.Err != nil && !errors.Is(st.Err, errTestbedClosed) && firstErr == nil {
					firstErr = fmt.Errorf("delivery to %s: %w", st.Name, st.Err)
				}
			}
		}
		if err := tb.stack.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		for _, p := range []*peer.Peer{tb.ParPeer, tb.SWPeer} {
			if p == nil {
				continue
			}
			if err := p.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		tb.closeErr = firstErr
	})
	return tb.closeErr
}
