package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bmac/internal/cluster"
	"bmac/internal/config"
)

// telemetryDir resolves where an experiment's trace files and metrics
// snapshots land: BMAC_TELEMETRY_DIR when set (the caller wants to keep
// them, e.g. as CI artifacts), otherwise the run's scratch dir.
func telemetryDir(scratch string) string {
	if d := os.Getenv("BMAC_TELEMETRY_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return scratch
}

// validTPS is the honest-goodput figure the adversarial gate compares:
// validated transactions per second up to the moment every honest
// submission had committed. Hostile flag-invalidated traffic never counts
// as throughput, and trailing hostile-only blocks (ordered after the honest
// load finished) never count as elapsed time.
func validTPS(res *cluster.Result) float64 {
	if res.HonestElapsed <= 0 {
		return 0
	}
	return Throughput(res.ValidTxs, res.HonestElapsed)
}

// FigAdversarial is the hostile-conditions acceptance suite. It runs the
// sequential-path cluster four ways and gates on each:
//
//   - baseline: honest load only, establishing the valid-tx TPS floor;
//   - flood: 50% of all traffic is adversarial (invalid signatures,
//     garbage envelopes, forged endorsements, replayed double-spends).
//     Valid-tx TPS must stay >= 70% of the baseline, the two compared as
//     the median of up to seven side-by-side pairs. Rejection stays cheap
//     because a peer verifies each signature it commits once and an
//     undecodable envelope not at all: the observer's verifications must
//     not exceed the signatures its committed blocks carry;
//   - each chaos fault (partition, corruption, slowdisk, leaderkill)
//     under a milder 20% adversary: the fast peers must still end
//     bit-identical (converged), with the p99 commit latency reported.
//
// Any violated gate is returned as an error, so `bmacbench -exp
// adversarial` is red in CI when hostile conditions break the cluster.
func FigAdversarial(opts Options) (*Table, error) {
	o := opts.withDefaults()
	dir, err := os.MkdirTemp("", "bmac-adversarial-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The flood gate runs unpaced with the default block size limit. The
	// orderer cuts a block whenever it is idle, so under this load blocks
	// grow to whatever arrives during one orderer round trip, in the flood
	// run as in the baseline: hostile envelopes ride inside the same blocks
	// as honest traffic and the comparison measures validation cost, not
	// per-block consensus overhead. The fault loop paces the load below,
	// which makes blocks of a transaction or two, so faults land
	// mid-stream.
	newConfig := func() *config.Config {
		cfg := config.Default()
		cfg.Delivery.Window = 8
		cfg.Durability.CheckpointEvery = 4
		cfg.Telemetry.Enabled = true
		return cfg
	}
	cfg := newConfig()
	telDir := telemetryDir(dir)

	base := cluster.Options{
		Mode:     cluster.Sequential,
		Peers:    3,
		Txs:      160,
		Clients:  2,
		Accounts: 64,
		Seed:     47,
		Timeout:  90 * time.Second,
	}

	tbl := &Table{Header: []string{
		"scenario", "adversary", "blocks", "txs", "valid", "hostile",
		"rejected", "tps", "valid_tps", "p99", "verifies", "carried", "converged",
	}}
	var (
		mu          sync.Mutex // tbl and metricsText, while a pair runs side by side
		metricsText string
	)
	run := func(cfg *config.Config, scenario string, copts cluster.Options) (*cluster.Result, error) {
		cfg.Telemetry.TraceFile = filepath.Join(telDir, "adversarial_"+scenario+"_trace.jsonl")
		res, err := cluster.Run(cfg, copts, filepath.Join(dir, scenario))
		if err != nil {
			return nil, fmt.Errorf("adversarial %s: %w", scenario, err)
		}
		hostile, rejected := int64(0), 0
		if res.Adversary != nil {
			hostile = res.Adversary.Injected.Total()
			rejected = res.Adversary.RejectedInvalid
		}
		mu.Lock()
		defer mu.Unlock()
		metricsText = res.MetricsText
		tbl.AddRow(
			scenario,
			fmt.Sprintf("%.0f%%", copts.Adversary*100),
			fmt.Sprintf("%d", res.Blocks),
			fmt.Sprintf("%d", res.Txs),
			fmt.Sprintf("%d", res.ValidTxs),
			fmt.Sprintf("%d", hostile),
			fmt.Sprintf("%d", rejected),
			FormatTPS(res.TPS),
			FormatTPS(validTPS(res)),
			fmt.Sprintf("%v", res.SWLatency.P99.Round(time.Microsecond)),
			fmt.Sprintf("%d", res.Verifications),
			fmt.Sprintf("%d", res.Signatures),
			fmt.Sprintf("%v", res.Converged),
		)
		if !res.Converged {
			return res, fmt.Errorf("adversarial %s: fast peers did not converge", scenario)
		}
		return res, nil
	}

	// Gate 1: honest-goodput floor under a 50% hostile flood. The 70% floor
	// is a performance gate. Under the race detector the instrumentation
	// multiplies validation cost, which skews the hostile/baseline goodput
	// ratio, so the floor drops to 40% there — still catching
	// O(n)-rejection regressions without flaking the race shard.
	//
	// Each run lasts a fraction of a second, so one after the other they
	// would mostly measure what else the host was doing at the time. A
	// baseline and a flood run go side by side instead, each on a config
	// (caches, registry) of its own, so that whatever load the host carries
	// slows both; on a busy host one pair in ten still comes out lopsided,
	// so the gate reads the median of seven pairs and stops as soon as four
	// agree — four pairs when nothing else is running.
	factor := 0.7
	if raceEnabled {
		factor = 0.4
	}
	flood := base
	flood.Adversary = 0.5
	floodCfg := newConfig()
	const majority = 4
	var ratios []float64
	for held := 0; held < majority; {
		n := len(ratios) + 1
		var (
			baseRes, floodRes *cluster.Result
			baseErr, floodErr error
			wg                sync.WaitGroup
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			baseRes, baseErr = run(cfg, fmt.Sprintf("baseline-%d", n), base)
		}()
		go func() {
			defer wg.Done()
			floodRes, floodErr = run(floodCfg, fmt.Sprintf("flood-%d", n), flood)
		}()
		wg.Wait()
		if err := errors.Join(baseErr, floodErr); err != nil {
			return tbl, err
		}
		if floodRes.Adversary == nil || floodRes.Adversary.Injected.Total() == 0 {
			return tbl, fmt.Errorf("adversarial flood: nothing injected")
		}
		// What rejection costs, counted rather than timed: a hostile envelope
		// costs at most the verifications of the signatures it carries, and
		// one whose payload does not decode costs none.
		if floodRes.Verifications > floodRes.Signatures {
			return tbl, fmt.Errorf("adversarial flood: the observer ran %d signature verifications over blocks carrying %d signatures",
				floodRes.Verifications, floodRes.Signatures)
		}
		ratio := validTPS(floodRes) / validTPS(baseRes)
		ratios = append(ratios, ratio)
		if ratio >= factor {
			held++
		} else if len(ratios)-held == majority {
			return tbl, fmt.Errorf("adversarial flood: valid-tx TPS under 50%% hostile load fell below %.0f%% of the baseline's in %d of %d side-by-side pairs (flood/baseline %.2f)",
				factor*100, majority, len(ratios), ratios)
		}
	}
	tbl.AddNote("flood / baseline valid-tx TPS, side-by-side pairs: %.2f (floor %.2f, %d of at most %d pairs must hold it)",
		ratios, factor, majority, 2*majority-1)

	// Gate 2: every chaos fault converges bit-identically under a mild
	// adversary riding along. Many small blocks, so the fault strikes
	// mid-stream and the delivery window moves on during a partition.
	cfg.Arch.MaxBlockTxs = 4
	if o.Quick {
		base.Txs = 64
	}
	for _, fault := range []string{"leaderkill", "partition", "corruption", "slowdisk"} {
		copts, fcfg := base, *cfg // the copy shares cfg's caches and registry
		copts.Adversary = 0.2
		copts.Rate = 900 // paced, so the fault lands mid-submission
		switch fault {
		case "partition":
			fcfg.Delivery.Window = 4 // force the victim past the retained window
		case "slowdisk":
			copts.Rate = 0
		case "leaderkill":
			copts.Peers = 2
			copts.RaftNodes = 3
		}
		if copts.Scenario, err = cluster.Script(fault, copts.Peers-1); err != nil {
			return tbl, err
		}
		if _, err := run(&fcfg, "fault-"+fault, copts); err != nil {
			return tbl, err
		}
	}

	// Final registry snapshot of the last scenario to finish: the
	// validator and fabcrypto series accumulate over the runs on its
	// config, the subsystem counts are that run's
	// (cluster.Result.MetricsText).
	if metricsText != "" {
		snap := filepath.Join(telDir, "adversarial_metrics.prom")
		if err := os.WriteFile(snap, []byte(metricsText), 0o644); err != nil {
			return tbl, fmt.Errorf("adversarial: metrics snapshot: %w", err)
		}
	}
	return tbl, nil
}
