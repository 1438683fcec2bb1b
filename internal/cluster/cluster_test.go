package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bmac/internal/config"
	"bmac/internal/telemetry"
)

func testConfig() *config.Config {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 6 // several blocks per run
	return cfg
}

// TestSlowPeerIsolation is the acceptance check of the delivery
// subsystem: with one artificially slow peer among fast ones, the fast
// peers' delivery is unaffected (zero lag when the observer finishes)
// while the slow peer's own backlog shows up as lag/drops, and every
// submitted transaction gets an end-to-end latency sample.
func TestSlowPeerIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:      Sequential,
		Peers:     3,
		SlowPeers: 1,
		SlowDelay: 100 * time.Millisecond,
		Txs:       24,
		Clients:   2,
		Seed:      11,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs != 24 || res.Submitted != 24 {
		t.Fatalf("committed %d/%d txs at the observer", res.Txs, res.Submitted)
	}
	if res.Blocks < 2 {
		t.Fatalf("only %d blocks", res.Blocks)
	}
	if res.SWLatency.Count != 24 || res.SWLatency.P99 <= 0 {
		t.Errorf("latency summary %+v, want 24 samples", res.SWLatency)
	}
	slow, fast := 0, 0
	for _, p := range res.Peers {
		if p.Slow {
			slow++
			if p.Delivery.Lag+p.Delivery.Dropped == 0 {
				t.Errorf("slow peer %s shows no backlog: %+v", p.Name, p.Delivery)
			}
		} else {
			fast++
			if p.Delivery.Lag != 0 {
				t.Errorf("fast peer %s lagging %d blocks behind a slow sibling: isolation broken",
					p.Name, p.Delivery.Lag)
			}
			if p.Delivery.Err != nil {
				t.Errorf("fast peer %s pipe error: %v", p.Name, p.Delivery.Err)
			}
			if p.Blocks != res.Blocks {
				t.Errorf("fast peer %s committed %d/%d blocks", p.Name, p.Blocks, res.Blocks)
			}
		}
	}
	if slow != 1 || fast != 2 {
		t.Fatalf("peer mix slow=%d fast=%d", slow, fast)
	}
}

// TestThreeNodeRaftOrdering drives the full stack over a 3-node Raft
// ordering service with leader submit: the observer peer's in-order
// commit check (inside commitLoop) proves every block arrives exactly
// once and in sequence, and every submitted transaction commits.
func TestThreeNodeRaftOrdering(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:      Sequential,
		Peers:     2,
		RaftNodes: 3,
		Txs:       18,
		Clients:   2,
		Seed:      13,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.RaftNodes != 3 {
		t.Fatalf("raft nodes = %d", res.RaftNodes)
	}
	if res.Txs != 18 {
		t.Fatalf("committed %d/18 txs", res.Txs)
	}
	for _, p := range res.Peers {
		if p.Blocks != res.Blocks || p.Txs != res.Txs {
			t.Errorf("peer %s committed %d blocks / %d txs, observer saw %d/%d",
				p.Name, p.Blocks, p.Txs, res.Blocks, res.Txs)
		}
	}
}

// TestPipelinedAndHybridPaths smoke-runs the two parallel validation
// paths end to end through the delivery service.
func TestPipelinedAndHybridPaths(t *testing.T) {
	for _, mode := range []string{Pipelined, Hybrid} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig()
			cfg.StateDB.Capacity = 16
			cfg.StateDB.HostReadLatencyUS = 20
			res, err := Run(cfg, Options{
				Mode:    mode,
				Peers:   2,
				Txs:     12,
				Clients: 1,
				Seed:    17,
			}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Txs != 12 {
				t.Fatalf("committed %d/12 txs", res.Txs)
			}
			if res.ValidTxs == 0 {
				t.Error("no valid transactions committed")
			}
		})
	}
}

// TestBMacPathLatency includes the hardware peer and checks the second
// observation point produces its own tail-latency digest, and that the
// BMac peer converges with the observer: same ledger height, same last
// commit hash.
func TestBMacPathLatency(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:     Sequential,
		Peers:    2,
		BMacPeer: true,
		Txs:      12,
		Clients:  1,
		Seed:     19,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.HWLatency.Count != 12 {
		t.Errorf("hardware path recorded %d latency samples, want 12", res.HWLatency.Count)
	}
	if res.BMacDelivery.Name != "bmac" || res.BMacDelivery.Err != nil {
		t.Errorf("bmac delivery stats %+v", res.BMacDelivery)
	}
	if res.BMacDelivery.Blocks == 0 && res.BMacDelivery.Lag == 0 {
		t.Error("bmac pipe shows no traffic")
	}
	if obs := res.Peers[0]; res.BMacHeight == 0 || res.BMacHeight != obs.Height || res.BMacCommitHash != obs.CommitHash {
		t.Errorf("bmac peer at height %d, commit %.16s; observer at %d, %.16s", res.BMacHeight, res.BMacCommitHash, obs.Height, obs.CommitHash)
	}
	requireConverged(t, res)
}

func TestRejectsBadModeAndPeerMix(t *testing.T) {
	if _, err := Run(testConfig(), Options{Mode: "warp", Txs: 4}, t.TempDir()); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(testConfig(), Options{Peers: 2, SlowPeers: 2, Txs: 4}, t.TempDir()); err == nil {
		t.Error("all-slow peer mix accepted")
	}
}

// TestRejectsBackendOutsideMode: the path opens the peers' store, so a
// statedb backend configured to something else is an error naming both,
// not a run on the path's backend; an unset or matching backend runs.
func TestRejectsBackendOutsideMode(t *testing.T) {
	for _, c := range []struct{ mode, backend string }{
		{Sequential, config.BackendHybrid},
		{Pipelined, config.BackendHybrid},
		{Hybrid, config.BackendMemory},
	} {
		cfg := testConfig()
		cfg.StateDB.Backend = c.backend
		_, err := Run(cfg, Options{Mode: c.mode, Txs: 4}, t.TempDir())
		if err == nil || !strings.Contains(err.Error(), c.mode) || !strings.Contains(err.Error(), c.backend) {
			t.Errorf("path %s, backend %s: err = %v, want a conflict naming both", c.mode, c.backend, err)
		}
	}
	cfg := testConfig()
	cfg.StateDB.Backend = config.BackendHybrid
	if _, err := Run(cfg, Options{Mode: Hybrid, Peers: 2, Txs: 4, Clients: 1, Seed: 3}, t.TempDir()); err != nil {
		t.Errorf("hybrid path with the hybrid backend configured: %v", err)
	}
}

// TestChurnConvergence is the acceptance check of the durability
// subsystem: a fast peer is killed mid-run after a few committed blocks,
// restarted from its genesis/periodic checkpoints plus ledger replay,
// caught up through the orderer's ledger-backed delivery source, and must
// finish bit-identical — same height, state hash and commit-hash chain —
// to the peers that never died.
func TestChurnConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4 // many small blocks, so the window moves on
	cfg.Durability.CheckpointEvery = 3
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:      Sequential,
		Peers:     3,
		SlowPeers: 0,
		Txs:       80,
		Rate:      900, // paced, so the kill lands mid-submission
		Clients:   2,
		Scenario:  Scenario{{Kill, 2, AtCommitted, 2}, {Restart, 2, Behind, 0}},
		Seed:      17,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kill, churned := event(t, res, Kill)
	restart, _ := event(t, res, Restart)
	if churned.Restarts != 1 {
		t.Errorf("churned peer restarted %d times, want 1", churned.Restarts)
	}
	if restart.Done == 0 || restart.Done > kill.Done {
		t.Errorf("recovered at height %d after a kill at %d", restart.Done, kill.Done)
	}
	if !res.Converged {
		for _, p := range res.Peers {
			t.Logf("%s: height %d state %.16s commit %.16s restarts %d",
				p.Name, p.Height, p.StateHash, p.CommitHash, p.Restarts)
		}
		t.Fatal("peers did not converge after churn")
	}
	if churned.Name == res.Peers[0].Name {
		t.Fatal("the observer must never churn")
	}
	if churned.StateHash != res.Peers[0].StateHash {
		t.Errorf("churned peer state hash %.16s != observer %.16s", churned.StateHash, res.Peers[0].StateHash)
	}
	if churned.Height != res.Peers[0].Height {
		t.Errorf("churned peer height %d != observer %d", churned.Height, res.Peers[0].Height)
	}
	if churned.Txs != res.Submitted {
		t.Errorf("churned peer committed %d/%d txs across its two lives", churned.Txs, res.Submitted)
	}
	// The restart waited until the cursor fell off the window, so part of
	// the lost range must have been streamed from the orderer's ledger.
	if churned.Delivery.CaughtUp == 0 {
		t.Errorf("churned peer caught up without the ledger source: %+v (kill %d, recovered %d)",
			churned.Delivery, kill.Done, restart.Done)
	}
}

// TestChurnPipelinedPath runs the churn scenario over the parallel
// pipelined commit engine, on the memory store and on the hybrid
// hardware/host database, proving recovery is backend- and
// engine-agnostic.
func TestChurnPipelinedPath(t *testing.T) {
	for _, mode := range []string{Pipelined, Hybrid} {
		t.Run(mode, func(t *testing.T) {
			cfg := config.Default()
			cfg.Arch.MaxBlockTxs = 4
			cfg.Durability.CheckpointEvery = 4
			cfg.Delivery.Window = 4
			res, err := Run(cfg, Options{
				Mode:     mode,
				Peers:    3,
				Txs:      48,
				Rate:     900,
				Clients:  2,
				Scenario: script(t, "churn", 2),
				Seed:     23,
			}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s peers did not converge after churn", mode)
			}
			if _, churned := event(t, res, Restart); churned.Restarts != 1 {
				t.Fatalf("churned peer report %+v", churned)
			}
		})
	}
}

// TestChurnRejectsTooFewFastPeers pins the victim validation: the
// observer must survive and a slow peer is not churned, so churn needs a
// second fast peer.
func TestChurnRejectsTooFewFastPeers(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		_, err := Run(testConfig(), Options{
			Mode:      Sequential,
			Peers:     2,
			SlowPeers: 1,
			Scenario:  script(t, "churn", victim),
			Txs:       6,
		}, t.TempDir())
		if err == nil {
			t.Errorf("churn of peer %d with a single fast peer accepted", victim)
		}
	}
}

// TestTelemetryTrace runs a small cluster with the telemetry plane on and
// checks the acceptance contract of the flight recorder: every committed
// block has a lifecycle trace, the per-stage spans cover >= 90% of summed
// end-to-end latency, the JSONL trace file parses back, and the registry
// exposition carries the retargeted subsystem metrics.
func TestTelemetryTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Telemetry.Enabled = true
	cfg.Telemetry.TraceFile = filepath.Join(dir, "trace.jsonl")
	cfg.Durability.SegmentBytes = 4096 // segments seal during the run
	res, err := Run(cfg, Options{
		Mode:    Sequential,
		Peers:   2,
		Txs:     24,
		Clients: 2,
		Seed:    7,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs != 24 {
		t.Fatalf("committed %d/24 txs", res.Txs)
	}
	if res.Budget == nil {
		t.Fatal("telemetry on but no latency budget")
	}
	if res.Budget.Blocks != res.Blocks {
		t.Errorf("budget covers %d blocks, observer committed %d", res.Budget.Blocks, res.Blocks)
	}
	if res.Budget.Coverage < 0.9 {
		t.Errorf("stage spans cover %.1f%% of e2e latency, want >= 90%%\n%s",
			100*res.Budget.Coverage, res.Budget)
	}
	known := make(map[string]bool)
	for _, st := range telemetry.Stages() {
		known[st] = true
	}
	stages := make(map[string]bool, len(res.Budget.Stages))
	for _, s := range res.Budget.Stages {
		stages[s.Stage] = true
		if !known[s.Stage] {
			t.Errorf("budget has unknown stage %q", s.Stage)
		}
	}
	// Zero-total stages are omitted (submit is ~0 without pacing, prefetch
	// is 0 on the sequential path); these are structurally nonzero here.
	for _, want := range []string{telemetry.StageEndorse, telemetry.StageOrder, telemetry.StageVSCC} {
		if !stages[want] {
			t.Errorf("budget is missing stage %q\n%s", want, res.Budget)
		}
	}
	if res.TraceEvents == 0 {
		t.Error("no trace events recorded")
	}
	if res.TraceFile == "" {
		t.Fatal("trace file not written")
	}
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		lines++
	}
	if lines != res.TraceEvents {
		t.Errorf("trace file has %d lines, recorder reported %d events", lines, res.TraceEvents)
	}
	for _, want := range []string{
		"validator_stage_seconds", "validator_blocks_total",
		"orderer_blocks_total", "load_e2e_seconds",
		"delivery_blocks_total", "statedb_reads_total",
	} {
		if !strings.Contains(res.MetricsText, want) {
			t.Errorf("metrics exposition is missing %s", want)
		}
	}

	// Every subsystem's counts are in the exposition under their names,
	// and equal to what the run reports about itself.
	value := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(res.MetricsText, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("metrics line %q: %v", line, err)
				}
				return n
			}
		}
		t.Errorf("metrics exposition is missing %s", name)
		return -1
	}
	for _, name := range []string{"orderer_blocks_total", "orderer_txs_total", "load_committed_txs_total", "load_late_txs_total"} {
		value(name)
	}
	for reason, want := range map[string]int{"size": res.SizeCuts, "idle": res.IdleCuts, "timeout": res.TimeoutCuts} {
		if got := value(telemetry.Name("orderer_cuts_total", "reason", reason)); got != int64(want) {
			t.Errorf("orderer_cuts_total{reason=%q} = %d, run reports %d", reason, got, want)
		}
	}
	if got := value("load_submitted_txs_total"); got != int64(res.Submitted) {
		t.Errorf("load_submitted_txs_total = %d, run reports %d", got, res.Submitted)
	}
	sealed := int64(0)
	for _, p := range res.Peers {
		name := func(base string) string { return telemetry.Name(base, "peer", p.Name) }
		for _, base := range []string{
			"ledger_segments_quarantined_total", "ledger_segments_restored_total",
			"ledger_blocks_restored_total", "ledger_segments_pruned_total", "ledger_index_rebuilds_total",
			"delivery_blocks_total", "delivery_bytes_total", "delivery_dropped_total",
			"delivery_redials_total", "delivery_send_errors_total",
		} {
			value(name(base))
		}
		if got := value(name("ledger_segments_sealed_total")); got != p.Ledger.Sealed {
			t.Errorf("%s = %d, run reports %d", name("ledger_segments_sealed_total"), got, p.Ledger.Sealed)
		}
		sealed += p.Ledger.Sealed
		if got := value(name("delivery_catchup_blocks_total")); got != int64(p.Delivery.CaughtUp) {
			t.Errorf("%s = %d, run reports %d", name("delivery_catchup_blocks_total"), got, p.Delivery.CaughtUp)
		}
	}
	if sealed == 0 {
		t.Error("no segment sealed: the sealed-count comparison above proves nothing")
	}
}

// TestScrapeDuringChurn scrapes the registry in a loop while a churn run
// kills and restarts a peer, and once more after the run has closed every
// subsystem. Under the race detector this guards the scrape-time
// reads: each one takes the lock of the ledger, orderer, load generator
// or delivery pipe that owns the count, concurrently with the run.
func TestScrapeDuringChurn(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 4
	cfg.Durability.SegmentBytes = 4096
	cfg.Delivery.Window = 4
	cfg.Telemetry.Enabled = true
	reg := cfg.TelemetryRegistry()
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.Text()
			n++
			time.Sleep(100 * time.Microsecond) // leave the run its CPUs
		}
	}()
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      48,
		Rate:     900,
		Clients:  2,
		Scenario: script(t, "churn", 2),
		Seed:     23,
	}, t.TempDir())
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("no scrape ran during the run")
	}
	if err != nil {
		t.Fatal(err)
	}
	requireConverged(t, res)
	text := reg.Text()
	for _, want := range []string{
		`ledger_segments_sealed_total{peer="peer2"}`,
		`delivery_blocks_total{peer="peer2"}`,
		"orderer_blocks_total", "load_submitted_txs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape after the run is missing %s", want)
		}
	}
}
