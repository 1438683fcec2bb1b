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

// BlockOutcome gathers the validation results of one block from both
// validator peers — SW (the software validator) and HW (BMac) — with the
// §4.1 cross-check verdict.
type BlockOutcome struct {
	BlockNum uint64
	TxCount  int
	SW       peer.CommitResult
	HW       peer.CommitResult
	// Match reports whether flags and commit hash agree between the two
	// peers (the paper found no mismatches; neither should you).
	Match bool
}

// Testbed is a complete in-process BMac network, the programmatic
// equivalent of the paper's Figure 8 setup: endorser peers per org, a
// Raft-backed ordering service, one software validator peer and one BMac
// peer receiving the same blocks over the two protocols.
type Testbed struct {
	Config    *Config
	Network   *identity.Network
	Endorsers []*endorser.Endorser
	SWPeer    *peer.Peer // the paper's sw_validator: the engine at 4 vscc workers, over the statedb section's backend
	BMacPeer  *peer.BMacPeer
	Orderer   *orderer.Orderer

	stack     *cluster.Stack
	clients   []*client.Driver
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

	// The software validator peer, durable per the config: reopening a
	// testbed directory replays its ledger (on top of its checkpoints) so
	// it resumes at its previous height. It runs over the configured
	// statedb backend (memory or hybrid hardware/host), so with a hybrid
	// one every block is also a cross-backend check against BMac's
	// in-hardware database.
	valCfg, err := cfg.ValidatorConfig(4)
	if err != nil {
		return nil, err
	}
	kvs, err := cfg.NewKVS()
	if err != nil {
		return nil, err
	}
	if tb.SWPeer, err = peer.Open(valCfg, kvs, filepath.Join(dir, "sw_validator"), cluster.DurableOptions(cfg.Durability)); err != nil {
		return nil, err
	}

	// The cross-check must see every block in order, so it is
	// the orderer's delivery hook itself: the orderer hands over the next
	// block only once the cross-check has taken this one, and an undrained
	// Outcomes channel throttles it (and through raft's bounded apply
	// channel, Submit) instead of losing blocks.
	tb.Orderer.OnDeliver(tb.deliver)
	return tb, nil
}

// deliver is the orderer's delivery hook: BMac protocol first (§3.5), then
// the software peer, then the cross-check and committer updates.
func (tb *Testbed) deliver(b *block.Block) error {
	if _, err := tb.stack.Sender.SendBlock(b); err != nil {
		return err
	}
	swRes, err := tb.SWPeer.CommitBlock(b)
	if err != nil {
		return err
	}
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
		HW:       hwRes,
		Match: block.FlagsEqual(swRes.Flags, hwRes.Flags) &&
			string(swRes.CommitHash) == string(hwRes.CommitHash),
	}
	select {
	case tb.outcomes <- outcome:
	case <-tb.stop:
		return errTestbedClosed
	}
	return nil
}

// errTestbedClosed unblocks the orderer's delivery hook when the testbed
// closes with unconsumed outcomes; it is not a real delivery failure.
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
// endorsers, the software peer and the BMac peer's in-hardware database.
func (tb *Testbed) Bootstrap(w Workload) error {
	return tb.stack.Bootstrap(w, tb.SWPeer.Engine.Store())
}

// BackendSummary describes the software peer's state-database backend and,
// for a hybrid backend, its cache behaviour and prefetch volume — the
// operational view of the §5 scaling proposal.
func (tb *Testbed) BackendSummary() string {
	switch kvs := tb.SWPeer.Engine.Store().(type) {
	case *statedb.HybridKVS:
		hits, misses, evictions, hostReads, hostWrites := kvs.Stats()
		return fmt.Sprintf(
			"hybrid (capacity %d): %.1f%% hit rate (%d hits, %d misses, %d evictions), host %d reads / %d writes, %d keys prefetched",
			kvs.Capacity(), kvs.HitRate()*100, hits, misses, evictions,
			hostReads, hostWrites, tb.SWPeer.Engine.PrefetchedKeys())
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
		// A hook parked on an unconsumed outcome returns the shutdown
		// sentinel; that is not a delivery failure.
		var firstErr error
		if err := tb.Orderer.Stop(); !errors.Is(err, errTestbedClosed) {
			firstErr = err
		}
		if err := tb.stack.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if tb.SWPeer != nil {
			if err := tb.SWPeer.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		tb.closeErr = firstErr
	})
	return tb.closeErr
}
