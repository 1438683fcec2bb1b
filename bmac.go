// Package bmac is the public API of the Blockchain Machine reproduction: a
// software implementation of the network-attached hardware accelerator for
// Hyperledger Fabric described in "Blockchain Machine: A Network-Attached
// Hardware Accelerator for Hyperledger Fabric" (ICDCS 2022).
//
// The package exposes three layers:
//
//   - Configuration (LoadConfig/DefaultConfig): the YAML configuration of
//     paper §3.5 describing organizations, chaincode endorsement policies
//     and the hardware architecture.
//
//   - Testbed: a complete in-process Fabric-like network — clients,
//     endorser peers, a Raft ordering service, a software validator peer
//     and a BMac peer — with every block cross-checked between the
//     software and hardware validation paths.
//
//   - Experiments (RunExperiment/ExperimentNames): the harness that
//     regenerates every table and figure of the paper's evaluation.
//
// See the examples/ directory for runnable programs built on this API.
package bmac

import (
	"fmt"

	"bmac/internal/cluster"
	"bmac/internal/config"
	"bmac/internal/delivery"
	"bmac/internal/experiments"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// StageBreakdown is the per-stage/per-operation timing breakdown reported
// by the software validator peers (sequential and parallel pipelined).
type StageBreakdown = validator.Breakdown

// Config is the BMac network/architecture configuration (paper §3.5).
type Config = config.Config

// ArchSpec, OrgSpec, ChaincodeSpec, PipelineSpec, StateDBSpec and
// DeliverySpec are configuration components.
type (
	ArchSpec      = config.ArchSpec
	OrgSpec       = config.OrgSpec
	ChaincodeSpec = config.ChaincodeSpec
	PipelineSpec  = config.PipelineSpec
	StateDBSpec   = config.StateDBSpec
	DeliverySpec  = config.DeliverySpec
)

// LoadConfig reads a YAML configuration file.
func LoadConfig(path string) (*Config, error) { return config.Load(path) }

// ParseConfig parses YAML configuration bytes.
func ParseConfig(raw []byte) (*Config, error) { return config.Parse(raw) }

// DefaultConfig returns the paper's default experimental configuration
// (two orgs, smallbank with a 2-outof-2 policy, an 8x2 architecture).
func DefaultConfig() *Config { return config.Default() }

// ExperimentNames lists the reproducible experiments (fig3..fig13, table1,
// headline, ablations).
func ExperimentNames() []string { return experiments.Names() }

// ExperimentTitle returns the display title for an experiment id.
func ExperimentTitle(name string) string { return experiments.Titles[name] }

// ExperimentOptions tune experiment cost.
type ExperimentOptions struct {
	// Rounds is the number of measured validations per data point
	// (default 3).
	Rounds int
	// Quick shrinks parameter sweeps for smoke testing.
	Quick bool
}

// RunExperiment regenerates one of the paper's tables or figures and
// returns the result as a printable table.
func RunExperiment(name string, opts ExperimentOptions) (*Table, error) {
	r, err := experiments.NewRunner(experiments.Options{
		Rounds: opts.Rounds,
		Quick:  opts.Quick,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment runner: %w", err)
	}
	return r.Run(name)
}

// Table is a printable experiment result.
type Table = experiments.Table

// HotpathRecord is the machine-readable result of the hotpath benchmark
// suite — the tracked perf trajectory written to BENCH_hotpath.json.
type HotpathRecord = experiments.HotpathRecord

// RunHotpathRecord runs the hotpath suite once, returning both the
// printable table and the machine-readable record (so `bmacbench -exp
// hotpath -json` measures once, not twice).
func RunHotpathRecord(opts ExperimentOptions) (*Table, *HotpathRecord, error) {
	env, err := experiments.NewEnv()
	if err != nil {
		return nil, nil, err
	}
	rec, err := experiments.MeasureHotpath(env, experiments.Options{Rounds: opts.Rounds, Quick: opts.Quick})
	if err != nil {
		return nil, nil, err
	}
	return rec.Table(), rec, nil
}

// LoadHotpathRecord reads a BENCH_hotpath.json baseline.
func LoadHotpathRecord(path string) (*HotpathRecord, error) {
	return experiments.LoadHotpathRecord(path)
}

// Cluster harness: the open-loop load driver + non-blocking delivery
// service stack (orderer -> raft -> delivery -> N peers), reporting
// throughput, per-tx tail latency and per-peer delivery statistics.
type (
	// ClusterOptions parameterize a cluster run (internal/cluster).
	ClusterOptions = cluster.Options
	// ClusterResult is the cluster run report.
	ClusterResult = cluster.Result
	// ClusterPeerReport is one software peer's summary.
	ClusterPeerReport = cluster.PeerReport
	// ClusterScenario is a script of fault steps played against a cluster
	// run (ClusterOptions.Scenario).
	ClusterScenario = cluster.Scenario
	// ClusterStep is one scripted action: kill, corrupt-segment, restart,
	// sever, heal, kill-leader, corrupt-frames or slow-disk.
	ClusterStep = cluster.Step
	// ClusterEvent is one step as it played out (ClusterResult.Events).
	ClusterEvent = cluster.Event
	// ClusterAdversaryReport summarizes the hostile traffic injected
	// alongside the honest load and how much of it was flag-rejected.
	ClusterAdversaryReport = cluster.AdversaryReport
	// DeliveryPeerStats is a delivery pipe snapshot.
	DeliveryPeerStats = delivery.PeerStats
	// LatencySummary is the p50/p95/p99 tail digest.
	LatencySummary = telemetry.Summary
)

// Cluster validation path modes.
const (
	ClusterSequential = cluster.Sequential
	ClusterPipelined  = cluster.Pipelined
	ClusterHybrid     = cluster.Hybrid
)

// ClusterModes lists the validation path modes.
func ClusterModes() []string { return cluster.Modes() }

// ClusterScripts lists the named scenarios: churn, churn-corrupt,
// partition, corruption, slowdisk and leaderkill.
func ClusterScripts() []string { return cluster.Scripts() }

// ClusterScript returns the named scenario striking the peer victim (the
// last fast peer is Peers-SlowPeers-1; the observer, peer0, is never one).
func ClusterScript(name string, victim int) (ClusterScenario, error) {
	return cluster.Script(name, victim)
}

// FormatTPS renders a throughput with thousands separators, e.g. "38,400".
func FormatTPS(tps float64) string { return experiments.FormatTPS(tps) }

// RunCluster executes one cluster experiment end to end; peers keep
// their ledgers under dir.
func RunCluster(cfg *Config, opts ClusterOptions, dir string) (*ClusterResult, error) {
	return cluster.Run(cfg, opts, dir)
}

// Telemetry plane: the unified metrics registry, the per-block lifecycle
// flight recorder and the live /metrics + /debug/pprof + /trace HTTP server
// (internal/telemetry). A Config's TelemetrySpec turns the plane on; every
// instrument is nil-safe, so a disabled plane costs one predicted branch
// per hot-path event.
type (
	// TelemetrySpec is the `telemetry:` configuration section.
	TelemetrySpec = config.TelemetrySpec
	// TelemetryRegistry is the process metrics registry.
	TelemetryRegistry = telemetry.Registry
	// TraceRecorder is the per-block lifecycle flight recorder.
	TraceRecorder = telemetry.Recorder
	// TraceBudget is the per-stage latency budget aggregated from a trace.
	TraceBudget = telemetry.Budget
	// TelemetryServer serves /metrics, /debug/pprof/* and /trace.
	TelemetryServer = telemetry.Server
)

// NewTraceRecorder creates a flight recorder (inject via
// ClusterOptions.Recorder to trace a cluster run and serve /trace live).
func NewTraceRecorder() *TraceRecorder { return telemetry.NewRecorder() }

// ServeTelemetry binds addr and serves the registry's /metrics exposition,
// Go's /debug/pprof/* handlers and the recorder's /trace JSONL dump (either
// may be nil). Close the returned server when done.
func ServeTelemetry(addr string, reg *TelemetryRegistry, rec *TraceRecorder) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg, rec)
}
