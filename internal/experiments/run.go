package experiments

import (
	"fmt"
	"sort"
	"time"
)

// estimateLedgerCommit models the CPU-side ledger append cost for a block
// of the given marshaled size: buffered sequential file writes sustain
// roughly 1 GB/s, plus a fixed index-update cost.
func estimateLedgerCommit(blockBytes int) time.Duration {
	return 200*time.Microsecond + time.Duration(blockBytes)*time.Nanosecond
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

// experiment is one catalogue entry: its id, display title and how to run
// it.
type experiment struct {
	id, title string
	run       func(e *Env, o Options) (*Table, error)
}

// catalogue is every experiment, in presentation order.
var catalogue = []experiment{
	{"fig3", "Figure 3: validator peer bottlenecks (software profile)", Figure3},
	{"fig9a", "Figure 9a: protocol bandwidth savings", Figure9a},
	{"fig9b", "Figure 9b: block transmission time CDF (1 Gbps link model)", Figure9b},
	{"fig10", "Figure 10: block validation breakdown, sw_validator vs BMac", Figure10},
	{"fig11", "Figure 11: smallbank throughput sweep", Figure11},
	{"fig12a", "Figure 12a: endorsement policies", Figure12a},
	{"fig12b", "Figure 12b: 8x2 vs 5x3 architectures", func(_ *Env, o Options) (*Table, error) { return Figure12b(o) }},
	{"fig12c", "Figure 12c: database requests (split payment)", Figure12c},
	{"fig13", "Figure 13: drm benchmark", Figure13},
	{"table1", "Table 1: FPGA resource utilization (model)", func(*Env, Options) (*Table, error) { return Table1(), nil }},
	{"headline", "Headline: peak throughput and speedup", Headline},
	{"ablations", "Ablations: design-choice benches", Ablations},
	{"hybrid", "Hybrid: §5 hardware/host database — hit rate and prefetch latency hiding vs capacity and Zipf skew", FigHybrid},
	{"hotpath", "Hotpath: commit hot-path micro/macro benchmarks — certificate cache, key-table ECDSA engine, hash lanes, payload views against the struct decoders, pooled marshal, signing — each vs its off baseline (ns/op, allocs/op, hit rates)", FigHotpath},
	{"adversarial", "Adversarial: hostile-load and chaos gates — 50% invalid-tx flood must keep valid-tx TPS >= 70% of baseline, and every fault (partition, corruption, slowdisk, leaderkill) must end bit-identical", func(_ *Env, o Options) (*Table, error) { return FigAdversarial(o) }},
	{"fastsync", "Fastsync: snapshot fast-sync vs full replay across ledger lengths — recovery must replay the fixed tail (not the chain), reopen from the persisted index, and land bit-identical", func(_ *Env, o Options) (*Table, error) { return FigFastSync(o) }},
}

// Names returns the available experiment ids in presentation order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, x := range catalogue {
		names[i] = x.id
	}
	return names
}

// Titles maps experiment ids to display titles.
var Titles = func() map[string]string {
	m := make(map[string]string, len(catalogue))
	for _, x := range catalogue {
		m[x.id] = x.title
	}
	return m
}()

// Run executes one experiment by id.
func (r *Runner) Run(name string) (*Table, error) {
	for _, x := range catalogue {
		if x.id == name {
			return x.run(r.env, r.opts)
		}
	}
	valid := Names()
	sort.Strings(valid)
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", name, valid)
}
