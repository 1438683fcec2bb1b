package bmac

import (
	"strings"
	"testing"
	"time"

	"bmac/internal/block"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Arch.TxValidators != 8 || cfg.Arch.VSCCEngines != 2 {
		t.Errorf("default arch = %+v", cfg.Arch)
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	cfg, err := ParseConfig([]byte(`
channel: ch9
orgs:
  - name: Org1
    peers: 1
    endorsers: 1
    clients: 1
    orderers: 1
chaincodes:
  - name: smallbank
    policy: "1of1"
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channel != "ch9" {
		t.Errorf("channel = %q", cfg.Channel)
	}
}

// TestTestbedHybridBackendCrossCheck runs the full network with the
// software peer on a small hybrid hardware/host database (modeled host
// latency, which the engine prefetches into) and cross-checks every block
// against the BMac peer: the §5 backend must be invisible to validation
// results.
func TestTestbedHybridBackendCrossCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDB = StateDBSpec{Backend: "hybrid", Capacity: 16, HostReadLatencyUS: 20}
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := SmallbankWorkload{Accounts: 64, Skew: 1.2}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 30
	if err := driver.Run(txs); err != nil {
		t.Fatal(err)
	}
	outcomes, err := tb.AwaitTxs(txs, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.Match {
			t.Fatalf("block %d diverged between the software and BMac peers", o.BlockNum)
		}
	}
	summary := tb.BackendSummary()
	if !strings.HasPrefix(summary, "hybrid") {
		t.Errorf("backend summary = %q, want hybrid", summary)
	}
	if tb.SWPeer.Engine.PrefetchedKeys() == 0 {
		t.Error("the software peer's engine prefetched nothing over the hybrid store")
	}
}

// TestTestbedCloseIdempotent: explicit Close for error checking plus a
// deferred Close is a common pattern; the second call must be a no-op
// returning the first result, not a double-close panic.
func TestTestbedCloseIdempotent(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := tb.Close()
	if second := tb.Close(); second != first {
		t.Errorf("second Close = %v, first = %v", second, first)
	}
}

func TestExperimentNamesHaveTitles(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("only %d experiments", len(names))
	}
	for _, n := range names {
		if ExperimentTitle(n) == "" {
			t.Errorf("experiment %q has no title", n)
		}
	}
}

func TestRunExperimentQuick(t *testing.T) {
	tbl, err := RunExperiment("table1", ExperimentOptions{Quick: true, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", ExperimentOptions{Quick: true}); err == nil {
		t.Error("expected error")
	}
}

// TestTestbedSmallbankEndToEnd drives the full public API: build a network
// from the default config, bootstrap smallbank, submit transactions through
// the client driver, and verify every block matched between the software
// and BMac validation paths.
func TestTestbedSmallbankEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch.MaxBlockTxs = 10 // at least three blocks in the run
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := SmallbankWorkload{Accounts: 40}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 30
	if err := driver.Run(txs); err != nil {
		t.Fatal(err)
	}
	// How the orderer slices the run depends on the load: anything from 3
	// full blocks to 30 single-transaction ones.
	outcomes, err := tb.AwaitTxs(txs, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, o := range outcomes {
		// The cross-check is lossless and in order: it sees every block,
		// each exactly once.
		if o.BlockNum != uint64(i) {
			t.Errorf("outcome %d is block %d, want block %d", i, o.BlockNum, i)
		}
		if !o.Match {
			t.Errorf("block %d: sw/hw mismatch\n  sw flags: %v\n  hw flags: %v",
				o.BlockNum, o.SW.Flags, o.HW.Flags)
		}
		if o.TxCount > cfg.Arch.MaxBlockTxs {
			t.Errorf("block %d holds %d txs, over the maximum of %d", o.BlockNum, o.TxCount, cfg.Arch.MaxBlockTxs)
		}
		total += o.TxCount
	}
	if total != txs {
		t.Errorf("committed %d txs, want %d", total, txs)
	}
	if tb.SWPeer.Ledger.Height() != tb.BMacPeer.Ledger.Height() {
		t.Error("ledger heights diverge")
	}
}

// TestTestbedRenamedOrgs runs the testbed with its orgs named Acme and
// Globex. Who may endorse is the consortium the configuration declares,
// whatever its orgs are called, so both peers find every transaction valid.
// Each transaction is awaited before the next is sent, so none reads a
// version a block in flight is about to change.
func TestTestbedRenamedOrgs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Orgs[0].Name, cfg.Orgs[1].Name = "Acme", "Globex"
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	w := SmallbankWorkload{Accounts: 20}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := driver.Run(1); err != nil {
			t.Fatal(err)
		}
		outcomes, err := tb.AwaitTxs(1, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outcomes {
			if !o.Match || block.CountValid(o.SW.Flags) != o.TxCount {
				t.Errorf("block %d: match %v\n  sw flags: %v\n  hw flags: %v", o.BlockNum, o.Match, o.SW.Flags, o.HW.Flags)
			}
		}
	}
}

// TestTestbedDurability holds the testbed's software validator peer to the
// configuration's durability section: with a one-byte segment budget every
// block seals a segment, and with pruning on the checkpoints every two
// blocks let the peer drop the segments it covers.
func TestTestbedDurability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch.MaxBlockTxs = 2 // at least six blocks in the run
	cfg.Durability.CheckpointEvery = 2
	cfg.Durability.SegmentBytes = 1
	cfg.Durability.Prune = true
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	w := SmallbankWorkload{Accounts: 20}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 12
	if err := driver.Run(txs); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AwaitTxs(txs, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tb.SWPeer.Ledger.Stats(); st.Sealed == 0 || st.Pruned == 0 {
		t.Errorf("software peer: %d segments sealed, %d pruned; want both > 0", st.Sealed, st.Pruned)
	}
}

// TestTestbedDRM runs the drm benchmark through the same path.
func TestTestbedDRM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaincodes = []ChaincodeSpec{{Name: "drm", Policy: "2of2"}}
	cfg.Arch.MaxBlockTxs = 8
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := DRMWorkload{Assets: 20}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Run(16); err != nil {
		t.Fatal(err)
	}
	outcomes, err := tb.AwaitTxs(16, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.Match {
			t.Error("drm block mismatch between sw and hw paths")
		}
	}
}

func TestNewTestbedInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaincodes = nil
	if _, err := NewTestbed(cfg, t.TempDir()); err == nil {
		t.Error("expected error for config without chaincodes")
	}

	cfg2 := DefaultConfig()
	cfg2.Orgs[0].Endorsers = 0
	cfg2.Orgs[1].Endorsers = 0
	if _, err := NewTestbed(cfg2, t.TempDir()); err == nil {
		t.Error("expected error for config without endorsers")
	}
}

func TestNewTestbedNeedsOrdererAndClient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Orgs[0].Orderers = 0
	if _, err := NewTestbed(cfg, t.TempDir()); err == nil {
		t.Error("expected error when the first org has no orderer")
	}

	cfg2 := DefaultConfig()
	cfg2.Orgs[0].Clients = 0
	tb, err := NewTestbed(cfg2, t.TempDir())
	if err != nil {
		t.Fatal(err) // network builds fine...
	}
	defer tb.Close()
	if _, err := tb.NewClient(SmallbankWorkload{Accounts: 1}, 1); err == nil {
		t.Error("expected error when the first org has no client identity")
	}
}

func TestSimulateArchitectureErrors(t *testing.T) {
	if _, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "bogus", BlockSize: 10}); err == nil {
		t.Error("expected policy parse error")
	}
	if _, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "2of2", BlockSize: 0}); err == nil {
		t.Error("expected block size error")
	}
}

func TestSimulateArchitectureShortCircuit(t *testing.T) {
	res, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "2of3", BlockSize: 100, Reads: 2, Writes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2of3 with all-valid endorsements: one per tx skipped.
	if res.EndsSkipped != 100 {
		t.Errorf("skipped = %d, want 100", res.EndsSkipped)
	}
	if res.Throughput <= 0 || !res.FitsU250 {
		t.Errorf("result = %+v", res)
	}
}
