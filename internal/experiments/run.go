package experiments

import (
	"fmt"
	"sort"
	"time"

	"bmac/internal/metrics"
)

// estimateLedgerCommit models the CPU-side ledger append cost for a block
// of the given marshaled size: buffered sequential file writes sustain
// roughly 1 GB/s, plus a fixed index-update cost.
func estimateLedgerCommit(blockBytes int) time.Duration {
	return 200*time.Microsecond + time.Duration(blockBytes)*time.Nanosecond
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Runner maps experiment ids (fig3, fig9a, ..., table1, headline,
// ablations) to their implementations.
type Runner struct {
	env  *Env
	opts Options
}

// NewRunner creates a runner with a fresh fixture.
func NewRunner(opts Options) (*Runner, error) {
	env, err := NewEnv()
	if err != nil {
		return nil, err
	}
	return &Runner{env: env, opts: opts}, nil
}

// Names returns the available experiment ids in presentation order.
func Names() []string {
	return []string{
		"fig3", "fig9a", "fig9b", "fig10", "fig11",
		"fig12a", "fig12b", "fig12c", "fig13", "table1",
		"headline", "ablations", "hybrid", "hotpath", "adversarial",
		"fastsync",
	}
}

// Titles maps experiment ids to display titles.
var Titles = map[string]string{
	"fig3":        "Figure 3: validator peer bottlenecks (software profile)",
	"fig9a":       "Figure 9a: protocol bandwidth savings",
	"fig9b":       "Figure 9b: block transmission time CDF (1 Gbps link model)",
	"fig10":       "Figure 10: block validation breakdown, sw_validator vs BMac",
	"fig11":       "Figure 11: smallbank throughput sweep",
	"fig12a":      "Figure 12a: endorsement policies",
	"fig12b":      "Figure 12b: 8x2 vs 5x3 architectures",
	"fig12c":      "Figure 12c: database requests (split payment)",
	"fig13":       "Figure 13: drm benchmark",
	"table1":      "Table 1: FPGA resource utilization (model)",
	"headline":    "Headline: peak throughput and speedup",
	"ablations":   "Ablations: design-choice benches",
	"hybrid":      "Hybrid: §5 hardware/host database — hit rate and prefetch latency hiding vs capacity and Zipf skew",
	"hotpath":     "Hotpath: commit hot-path micro/macro benchmarks — verify cache, key-table ECDSA engine, parse-once, pooled marshal, signing — each vs its off baseline (ns/op, allocs/op, hit rates)",
	"adversarial": "Adversarial: hostile-load and chaos gates — 50% invalid-tx flood must keep valid-tx TPS >= 70% of baseline, and every fault (partition, corruption, slowdisk, leaderkill) must end bit-identical",
	"fastsync":    "Fastsync: snapshot fast-sync vs full replay across ledger lengths — recovery must replay the fixed tail (not the chain), reopen from the persisted index, and land bit-identical",
}

// Run executes one experiment by id.
func (r *Runner) Run(name string) (*metrics.Table, error) {
	switch name {
	case "fig3":
		return Figure3(r.env, r.opts)
	case "fig9a":
		return Figure9a(r.env, r.opts)
	case "fig9b":
		return Figure9b(r.env, r.opts)
	case "fig10":
		return Figure10(r.env, r.opts)
	case "fig11":
		return Figure11(r.env, r.opts)
	case "fig12a":
		return Figure12a(r.env, r.opts)
	case "fig12b":
		return Figure12b(r.opts)
	case "fig12c":
		return Figure12c(r.env, r.opts)
	case "fig13":
		return Figure13(r.env, r.opts)
	case "table1":
		return Table1(), nil
	case "headline":
		return Headline(r.env, r.opts)
	case "ablations":
		return Ablations(r.env, r.opts)
	case "hybrid":
		return FigHybrid(r.env, r.opts)
	case "hotpath":
		return FigHotpath(r.env, r.opts)
	case "adversarial":
		return FigAdversarial(r.opts)
	case "fastsync":
		return FigFastSync(r.opts)
	default:
		valid := Names()
		sort.Strings(valid)
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", name, valid)
	}
}
