// Command bmacnet runs a complete in-process BMac network: clients endorse
// and submit benchmark transactions through a Raft ordering service, and
// every block is validated twice — by the software validator and by the
// BMac pipeline — with the results cross-checked, as in paper §4.1.
//
// With -cluster it instead drives the delivery-side stack end to end:
// an open-loop client load (configurable arrival rate and distribution)
// submits through the Raft ordering service, and blocks fan out through
// the non-blocking delivery service to N gossip peers (one of them
// artificially slow) and a BMac peer, reporting throughput, per-tx
// p50/p95/p99 commit latency and per-peer delivery statistics.
//
// With -cluster -scenario it plays a named fault script against the run,
// striking the last fast peer: churn kills it mid-run and restarts it from
// its checkpoint + ledger replay, catching it up through the orderer's
// ledger-backed delivery source; churn-corrupt also bit-rots one of the
// downed peer's sealed ledger segments, so the restart must quarantine it
// and re-fetch the lost range through delivery; partition, corruption,
// slowdisk and leaderkill inject one chaos fault. -segment-bytes and
// -prune tune the segmented ledger's rotation budget and
// checkpoint-covered pruning. With -cluster
// -adversary-rate it mixes hostile traffic (invalid signatures, garbage
// envelopes, forged endorsements, replayed double-spends) into the honest
// load at the given fraction. Every run gates on all fast peers ending
// bit-identical.
//
// Usage:
//
//	bmacnet                          # smallbank, default config
//	bmacnet -config bmac.yaml        # custom network/architecture
//	bmacnet -workload drm -txs 500   # drm benchmark
//	bmacnet -cluster -peers 4 -slow-peers 1 -rate 500 -path pipelined
//	bmacnet -cluster -scenario churn -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -scenario churn-corrupt -segment-bytes 4096 -checkpoint-every 3 -txs 200 -no-bmac
//	bmacnet -cluster -scenario churn -segment-bytes 4096 -prune -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -adversary-rate 0.5 -txs 200 -no-bmac
//	bmacnet -cluster -scenario partition -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -scenario leaderkill -raft-nodes 3 -peers 2 -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -path pipelined -txs 200 -cpuprofile cpu.pprof
//	                                 # + a CPU profile of the whole run (go tool pprof)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"bmac"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bmacnet:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		configPath = flag.String("config", "", "YAML configuration file (default: built-in)")
		workload   = flag.String("workload", "smallbank", "workload: smallbank, drm or splitpay")
		txs        = flag.Int("txs", 200, "transactions to submit")
		accounts   = flag.Int("accounts", 100, "accounts/assets to bootstrap")
		skew       = flag.Float64("skew", 0, "smallbank hot-account Zipf exponent (>1 skews, 0 = uniform)")
		dir        = flag.String("dir", "", "ledger directory (default: temp)")
		backend    = flag.String("backend", "", "statedb backend of the testbed's software validator: memory or hybrid (default: config); with -cluster it must match -path's")
		dbCap      = flag.Int("db-capacity", 0, "hybrid backend cache capacity (default: architecture db_capacity)")
		hostLatUS  = flag.Int("host-latency-us", 0, "modeled host read latency on hybrid cache misses, microseconds")

		clusterRun = flag.Bool("cluster", false, "run the cluster load experiment (orderer -> raft -> delivery -> N peers)")
		path       = flag.String("path", "sequential", "cluster validation path: sequential, pipelined or hybrid")
		peers      = flag.Int("peers", 3, "cluster software peers")
		slowPeers  = flag.Int("slow-peers", 1, "cluster peers made artificially slow (taken from the end)")
		slowDelay  = flag.Duration("slow-delay", 40*time.Millisecond, "per-block delay of a slow peer")
		rate       = flag.Float64("rate", 0, "open-loop aggregate arrival rate, tx/s (0 = unpaced)")
		arrival    = flag.String("arrival", "poisson", "inter-arrival distribution: poisson or uniform")
		clients    = flag.Int("clients", 2, "concurrent load clients")
		raftNodes  = flag.Int("raft-nodes", 1, "raft cluster size of the ordering service")
		window     = flag.Int("delivery-window", 0, "delivery retained-block window (0 = config delivery.window or the delivery default)")
		noBMac     = flag.Bool("no-bmac", false, "cluster: skip the BMac protocol peer")
		scenario   = flag.String("scenario", "", "cluster: fault script striking the last fast peer: "+strings.Join(bmac.ClusterScripts(), ", "))
		ckptEvery  = flag.Int("checkpoint-every", 0, "peer state checkpoint cadence in blocks (0 = config durability.checkpoint_every)")
		segBytes   = flag.Int64("segment-bytes", 0, "ledger segment rotation budget in bytes (0 = config durability.segment_bytes or ledger default)")
		prune      = flag.Bool("prune", false, "prune ledger segments covered by every retained checkpoint generation (requires a checkpoint cadence)")
		advRate    = flag.Float64("adversary-rate", 0, "cluster: fraction of all traffic injected as hostile envelopes — invalid signatures, garbage, forged endorsements, replays (0..0.9)")

		telAddr   = flag.String("telemetry-addr", "", "serve live /metrics, /debug/pprof/* and /trace on this address (e.g. 127.0.0.1:9464); turns the telemetry plane on")
		traceFile = flag.String("trace-file", "", "cluster: write the per-block lifecycle trace (JSONL) here after the run; turns the telemetry plane on")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errors.Join(err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}

	cfg := bmac.DefaultConfig()
	if *configPath != "" {
		loaded, err := bmac.LoadConfig(*configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	}
	if *backend != "" {
		cfg.StateDB.Backend = *backend
	}
	if *dbCap > 0 {
		cfg.StateDB.Capacity = *dbCap
	}
	if *hostLatUS > 0 {
		cfg.StateDB.HostReadLatencyUS = *hostLatUS
	}
	if *window > 0 {
		cfg.Delivery.Window = *window
	}
	if *ckptEvery > 0 {
		cfg.Durability.CheckpointEvery = *ckptEvery
	}
	if *segBytes > 0 {
		cfg.Durability.SegmentBytes = *segBytes
	}
	cfg.Durability.Prune = cfg.Durability.Prune || *prune
	if *telAddr != "" {
		cfg.Telemetry.Enabled = true
		cfg.Telemetry.Addr = *telAddr
	}
	if *traceFile != "" {
		cfg.Telemetry.Enabled = true
		cfg.Telemetry.TraceFile = *traceFile
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The telemetry plane: a per-run flight recorder (stamped by the
	// cluster harness) plus the live HTTP endpoint, both optional. The
	// server is up before the run starts so /metrics and /debug/pprof can
	// watch the run in flight.
	var rec *bmac.TraceRecorder
	if cfg.Telemetry.Enabled {
		rec = bmac.NewTraceRecorder()
	}
	if cfg.Telemetry.Addr != "" {
		srv, err := bmac.ServeTelemetry(cfg.Telemetry.Addr, cfg.TelemetryRegistry(), rec)
		if err != nil {
			return fmt.Errorf("telemetry server: %w", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s (/metrics, /debug/pprof/, /trace)\n", srv.Addr())
	}
	var w bmac.Workload
	switch *workload {
	case "smallbank":
		w = bmac.SmallbankWorkload{Accounts: *accounts, Skew: *skew}
	case "drm":
		cfg.Chaincodes = []bmac.ChaincodeSpec{{Name: "drm", Policy: cfg.Chaincodes[0].Policy}}
		w = bmac.DRMWorkload{Assets: *accounts}
	case "splitpay":
		cfg.Chaincodes = []bmac.ChaincodeSpec{{Name: "splitpay", Policy: cfg.Chaincodes[0].Policy}}
		w = bmac.SplitPayWorkload{Accounts: *accounts, Recipients: 3}
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	workdir := *dir
	if workdir == "" {
		tmp, err := os.MkdirTemp("", "bmacnet-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		workdir = tmp
	}

	if *clusterRun {
		var sc bmac.ClusterScenario
		if *scenario != "" {
			var err error
			if sc, err = bmac.ClusterScript(*scenario, *peers-*slowPeers-1); err != nil {
				return err
			}
		}
		return runCluster(cfg, bmac.ClusterOptions{
			Mode:      *path,
			Peers:     *peers,
			SlowPeers: *slowPeers,
			SlowDelay: *slowDelay,
			BMacPeer:  !*noBMac,
			RaftNodes: *raftNodes,
			Txs:       *txs,
			Rate:      *rate,
			Arrival:   *arrival,
			Clients:   *clients,
			Accounts:  *accounts,
			Skew:      *skew,
			Seed:      time.Now().UnixNano(),
			Scenario:  sc,
			Adversary: *advRate,
			Recorder:  rec,
		}, workdir)
	}

	tb, err := bmac.NewTestbed(cfg, workdir)
	if err != nil {
		return err
	}
	defer tb.Close()

	if err := tb.Bootstrap(w); err != nil {
		return err
	}
	driver, err := tb.NewClient(w, time.Now().UnixNano())
	if err != nil {
		return err
	}

	fmt.Printf("network: %d orgs, %d endorsers, arch %dx%d, channel %s\n",
		len(cfg.Orgs), len(tb.Endorsers), cfg.Arch.TxValidators, cfg.Arch.VSCCEngines, cfg.Channel)
	fmt.Printf("submitting %d %s transactions...\n", *txs, *workload)
	start := time.Now()
	// Submit concurrently with outcome consumption: with small blocks a
	// long run produces more blocks than the outcomes channel and the
	// delivery window can buffer, and the cross-check's backpressure
	// would park Submit until someone drains outcomes.
	submitErr := make(chan error, 1)
	// bmaclint:allow goroleak (Run submits a fixed count; joined via the submitErr receive below)
	go func() { submitErr <- driver.Run(*txs) }()

	committed, blocks, mismatches := 0, 0, 0
	var swTotal bmac.StageBreakdown
	for committed < *txs {
		select {
		case o := <-tb.Outcomes():
			blocks++
			committed += o.TxCount
			if !o.Match {
				mismatches++
			}
			swTotal.Add(o.SW.Breakdown)
			fmt.Printf("block %3d: %3d txs, sw/hw match=%v, ends verified=%d skipped=%d\n",
				o.BlockNum, o.TxCount, o.Match,
				o.HW.HWStats.EndsVerified, o.HW.HWStats.EndsSkipped)
		case err := <-submitErr:
			if err != nil {
				return err
			}
			submitErr = nil // submission done; a nil channel never selects
		case <-time.After(30 * time.Second):
			return fmt.Errorf("timed out with %d/%d txs committed", committed, *txs)
		}
	}
	if submitErr != nil {
		if err := <-submitErr; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d blocks, %d txs in %v (%.0f tps end-to-end)\n",
		blocks, committed, elapsed.Round(time.Millisecond), float64(committed)/elapsed.Seconds())
	size, idle, timeout := tb.Orderer.Cuts()
	printCuts(blocks, committed, size, idle, timeout)

	fmt.Println("\nper-stage totals, software validator:")
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"unmarshal", swTotal.Unmarshal},
		{"block_verify", swTotal.BlockVerify},
		{"verify_vscc", swTotal.VerifyVSCC},
		{"mvcc", swTotal.MVCC},
		{"statedb", swTotal.StateDB},
		{"total", swTotal.Total},
	} {
		fmt.Printf("  %-12s %12v\n", s.name, s.d.Round(time.Microsecond))
	}

	fmt.Printf("\nsoftware validator statedb: %s\n", tb.BackendSummary())

	if mismatches != 0 {
		return fmt.Errorf("%d blocks mismatched between the software and BMac validators", mismatches)
	}
	fmt.Println("\nsoftware and BMac validation results matched on every block")
	return nil
}

// printCuts says how the orderer sliced the run. Batch size tracks load, so
// the block count is a result, not a setting: many small idle-cut blocks at
// a low rate, full size-cut blocks under overload. A timeout cut is a
// symptom — raft was leaderless or a block was stuck leaving the orderer.
func printCuts(blocks, txs, size, idle, timeout int) {
	fmt.Printf("orderer cuts: %d size, %d idle, %d timeout; mean %.1f tx/block\n",
		size, idle, timeout, float64(txs)/float64(max(blocks, 1)))
}

// runCluster drives the delivery-side stack and prints the report.
func runCluster(cfg *bmac.Config, opts bmac.ClusterOptions, dir string) error {
	fmt.Printf("cluster: %d peers (%d slow, +%v/block), path %s, raft %d node(s), %d txs",
		opts.Peers, opts.SlowPeers, opts.SlowDelay, opts.Mode, opts.RaftNodes, opts.Txs)
	if opts.Rate > 0 {
		fmt.Printf(" at %.0f tx/s (%s arrivals)", opts.Rate, opts.Arrival)
	}
	fmt.Println()

	res, err := bmac.RunCluster(cfg, opts, dir)
	if err != nil {
		return err
	}

	fmt.Printf("\n%d blocks, %d txs (%d valid) in %v: %s tps end-to-end, %d late arrivals\n",
		res.Blocks, res.Txs, res.ValidTxs, res.Elapsed.Round(time.Millisecond),
		bmac.FormatTPS(res.TPS), res.Late)
	printCuts(res.Blocks, res.Txs, res.SizeCuts, res.IdleCuts, res.TimeoutCuts)
	fmt.Printf("gossip path  e2e commit latency: %s\n", res.SWLatency)
	if res.HWLatency.Count > 0 {
		fmt.Printf("bmac   path  e2e commit latency: %s\n", res.HWLatency)
	}
	fmt.Printf("observer: %d signature verifications, %d signatures carried\n", res.Verifications, res.Signatures)

	fmt.Println("\nper-peer delivery (snapshot at fast-path completion):")
	fmt.Printf("  %-8s %-5s %8s %10s %6s %6s %8s %8s %8s %7s %6s\n",
		"peer", "slow", "blocks", "bytes", "lag", "drops", "catchup", "redials", "senderrs", "commits", "height")
	for _, p := range res.Peers {
		d := p.Delivery
		fmt.Printf("  %-8s %-5v %8d %10d %6d %6d %8d %8d %8d %7d %6d\n",
			p.Name, p.Slow, d.Blocks, d.Bytes, d.Lag, d.Dropped, d.CaughtUp, d.Redials, d.SendErrs, p.Blocks, p.Height)
	}
	if res.BMacDelivery.Name != "" {
		d := res.BMacDelivery
		fmt.Printf("  %-8s %-5v %8d %10d %6d %6d %8d %8d %8d %7s %6s\n",
			d.Name, false, d.Blocks, d.Bytes, d.Lag, d.Dropped, d.CaughtUp, d.Redials, d.SendErrs, "-", "-")
	}
	if res.Adversary != nil {
		a := res.Adversary
		fmt.Printf("\nadversary: %.0f%% hostile injection — %s; %d committed envelopes flag-invalidated\n",
			a.Rate*100, a.Injected, a.RejectedInvalid)
	}
	if len(res.Events) > 0 {
		fmt.Println("\nscenario timeline (delivery height fired -> done; a kill or restart is done at the victim's ledger height):")
		for _, e := range res.Events {
			fmt.Printf("  %-44s %-6s %4d -> %-4d", e.Step, e.Victim, e.Fired, e.Done)
			switch {
			case e.File != "":
				fmt.Printf(" bit-rot in %s", e.File)
			case e.NewLeader != "":
				fmt.Printf(" orderer rebound to %s", e.NewLeader)
			case e.Heals > 0:
				fmt.Printf(" %d heal(s)", e.Heals)
			case e.CorruptedFrames > 0:
				fmt.Printf(" %d frames bit-flipped", e.CorruptedFrames)
			case e.DiskWrites > 0:
				fmt.Printf(" %d injected faults over %d writes", e.DiskFaults, e.DiskWrites)
			}
			fmt.Println()
		}
		for _, p := range res.Peers {
			if l := p.Ledger; p.Restarts+int(l.Quarantined) > 0 {
				fmt.Printf("  %s: %d restart(s), %d blocks caught up through the orderer ledger, %d segment(s) quarantined, %d block(s) restored\n",
					p.Name, p.Restarts, p.Delivery.CaughtUp, l.Quarantined, l.RestoredBlocks)
			}
		}
	}
	if res.Budget != nil {
		fmt.Printf("\n%s", res.Budget)
		if res.TraceFile != "" {
			fmt.Printf("trace: %d events -> %s\n", res.TraceEvents, res.TraceFile)
		}
	}
	if res.Converged {
		fmt.Println("fast peers converged: identical height, state hash and commit-hash chain")
	} else {
		return fmt.Errorf("fast peers did NOT converge (heights/state hashes differ)")
	}
	return nil
}
