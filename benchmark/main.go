// Package main is the benchmark command, the repo's performance ruler: one
// seeded runner for the commit path end to end (e2e_smallbank) and per
// validation path (replay_seq, replay_par, replay_hot, replay_bmac).
//
// A run measures one workload for -seconds and prints, as the last line of
// its standard output, one JSON object {correct, attempted, failed, metrics}.
// With -trace 0 the metrics are the end-to-end ones (tps, p50_ms, p95_ms,
// setup_s), measured with tracing off and reported at a reference host speed
// (hostspeed.go); with -trace 1 they are the per-layer ones, as measured, from a
// separate traced pass whose spans go to
// benchmark/out/trace_<workload>.jsonl. Without -workload every workload
// runs both ways. README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizeDef sizes the workloads. The full size is what BENCHMARK.json's
// numbers are measured at, on 2 cores; tiny is for the test.
type sizeDef struct {
	// Replay: chain shape, warm-up length, the least number of passes, and
	// the consecutive blocks that make one window of a pass (about a fifth
	// of a second at the full size).
	ChainBlocks, TxsPerBlock, Keys, WarmBlocks, MinPasses, WindowBlocks int
	// E2E: clients, smallbank accounts, warm-up transactions, the closed
	// loop's bound on uncommitted transactions, the open loop's rate, and
	// the length of one window of a phase.
	Clients, Accounts, WarmTxs, Inflight int
	Rate                                 float64
	E2EWindow                            time.Duration
}

var sizes = map[string]sizeDef{
	"full": {
		ChainBlocks: 60, TxsPerBlock: 100, Keys: 4000, WarmBlocks: 20, MinPasses: 3, WindowBlocks: 10,
		Clients: 2, Accounts: 10000, WarmTxs: 1000, Inflight: 300, Rate: 1200, E2EWindow: 250 * time.Millisecond,
	},
	"tiny": {
		ChainBlocks: 6, TxsPerBlock: 20, Keys: 400, WarmBlocks: 2, MinPasses: 2, WindowBlocks: 3,
		Clients: 2, Accounts: 500, WarmTxs: 60, Inflight: 50, Rate: 400, E2EWindow: 40 * time.Millisecond,
	},
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

// runOpts is one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizeDef
	outDir   string    // traces
	workDir  string    // ledgers of this run; removed afterwards
	log      io.Writer // progress and counted failures
	host     *hostMeter
}

// share is the given share of the run's measuring time.
func (o runOpts) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

func (o runOpts) tracePath() string {
	return filepath.Join(o.outDir, "trace_"+o.workload+".jsonl")
}

// timedSetups runs setup setupRepeats times and returns the median time in
// seconds at the reference host speed; what the last call built is what the
// run measures.
func timedSetups(o runOpts, setup func() error) (float64, error) {
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		took = append(took, time.Since(t).Seconds()/o.host.factor(t, time.Now()))
	}
	return median(took), nil
}

// runWorkload runs one workload in a work directory of its own.
func runWorkload(o runOpts) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir
	if o.workload == "e2e_smallbank" {
		return runE2E(o)
	}
	if _, ok := replayDefs[o.workload]; ok {
		return runReplay(o)
	}
	return result{}, fmt.Errorf("unknown workload %q", o.workload)
}

// printTable lists a result's metrics by name with unit and sample count.
func printTable(w io.Writer, o runOpts, r result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: correct %v, attempted %d, failed %d (fail_frac %.6f)\n",
		o.workload, o.seed, o.traced, r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", name, v.Value, v.Unit, v.N)
	}
}

// record is one line of a -record file, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifest is BENCHMARK.json.
func manifest(runSeconds int) ([]byte, error) {
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all, each with -trace 0 and -trace 1")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		size     = flag.String("size", "full", "workload size: full or tiny")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces and the run's ledgers")
		recFile  = flag.String("record", "", "append every result to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -record files given as arguments: base, then change")
		printMan = flag.Int("manifest", 0, "print BENCHMARK.json for this run_seconds and exit")
		spinner  = flag.Bool("spin", false, "internal: run as an idle-priority spinner until standard input closes")
	)
	flag.Parse()
	switch {
	case *spinner:
		spin()
	case *printMan > 0:
		b, err := manifest(*printMan)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: base and change"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	default:
		sz, ok := sizes[*size]
		if !ok {
			fatal(fmt.Errorf("unknown size %q", *size))
		}
		o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceOn != 0, size: sz, outDir: *outDir, log: os.Stderr}
		correct, err := runAll(o, *size, *recFile)
		if err != nil {
			fatal(err)
		}
		if !correct {
			os.Exit(1)
		}
	}
}

// runAll runs o.workload as o.traced says, or, without a workload, every
// workload both ways. A single run ends with the result line the driver
// reads. It reports whether every run was correct.
func runAll(o runOpts, size, recFile string) (correct bool, err error) {
	type job struct {
		workload string
		traced   bool
	}
	jobs := []job{{o.workload, o.traced}}
	if o.workload == "" {
		fmt.Printf("cpus %d, GOMAXPROCS %d, %s, size %s, %.0f s per run; no gain is claimed (\"claim\": null)\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), size, o.seconds)
		jobs = nil
		for _, w := range workloads {
			jobs = append(jobs, job{w.Name, false}, job{w.Name, true})
		}
	}
	host, err := startHostMeter()
	if err != nil {
		return false, err
	}
	defer host.stop()
	o.host = host
	correct = true
	for _, j := range jobs {
		o.workload, o.traced = j.workload, j.traced
		res, err := runWorkload(o)
		if err != nil {
			return false, err
		}
		printTable(os.Stdout, o, res)
		if recFile != "" {
			if err := appendRecord(recFile, record{o.workload, o.seed, o.traced, res}); err != nil {
				return false, err
			}
		}
		correct = correct && res.Correct
		if len(jobs) == 1 {
			fmt.Println(res.line())
		}
	}
	return correct, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
