package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPlanChainIsAFunctionOfTheSeed(t *testing.T) {
	spec := chainSpec{Seed: 7, Blocks: 5, TxsPerBlock: 40, Keys: 60}
	a, b := planChain(spec), planChain(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different RW sets, verdicts or end state")
	}
	spec.Seed = 8
	c := planChain(spec)
	if reflect.DeepEqual(a.Blocks, c.Blocks) {
		t.Fatal("different seeds gave the same RW sets")
	}
	if reflect.DeepEqual(a.Valid, c.Valid) {
		t.Fatal("different seeds gave the same verdicts")
	}
	// 40 transactions over 60 keys must conflict within a block, and a
	// Zipf draw must conflict more.
	if f := a.validFrac(); f <= 0 || f >= 1 {
		t.Fatalf("valid fraction %v: want some conflicts and some valid transactions", f)
	}
	spec.ZipfS = 1.2
	if hot := planChain(spec); hot.validFrac() >= c.validFrac() {
		t.Fatalf("zipf keys: valid fraction %v, uniform %v: want fewer valid", hot.validFrac(), c.validFrac())
	}
}

// TestTinyRunOfEveryWorkload runs all five workloads both ways at the tiny
// size: every metric the manifest names must be there and finite, and no
// operation may fail.
func TestTinyRunOfEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{workload: wl.Name, seed: 1, seconds: 0.5, traced: traced, size: sizes["tiny"], outDir: out, log: io.Discard, host: noMeter}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d operations failed", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", wl.Name, traced, d.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, v.Value)
				}
			}
			if traced {
				if fi, err := os.Stat(o.tracePath()); err != nil || fi.Size() == 0 {
					t.Errorf("%s: trace file: %v", wl.Name, err)
				}
				if c := res.Metrics["trace.coverage_frac"].Value; c < 0.5 || c > 1.0001 {
					t.Errorf("%s: trace.coverage_frac = %v", wl.Name, c)
				}
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(out, "run-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("work directories left behind: %v %v", left, err)
	}
}

// TestManifestIsBenchmarkJSON keeps BENCHMARK.json at the root of the repo
// equal to what -manifest prints from the metric tables.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(have, &m); err != nil {
		t.Fatal(err)
	}
	want, err := manifest(m.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(have), want) {
		t.Fatal("BENCHMARK.json differs from `benchmark -manifest`; print it again")
	}
}

func TestCompareAppliesTheBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range tps {
			rec := record{Workload: "replay_seq", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]value{"tps": {Value: v, Unit: "1/s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", []float64{1000, 1010, 990, 1005})
	for _, c := range []struct {
		name    string
		tps     []float64
		verdict string
		fails   bool
	}{
		{"same", []float64{995, 1000, 1008, 1002}, " ok ", false},
		{"slower", []float64{800, 805, 795, 802}, " regressed ", true},
		{"noisy", []float64{700, 1300, 900, 1100}, " unresolved ", false},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, base, write(c.name, c.tps))
		if (err != nil) != c.fails || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: err %v, output:\n%s", c.name, err, buf.String())
		}
	}
}

// validFrac is the share of planned transactions that must validate.
func (p *chainPlan) validFrac() float64 {
	n, ok := 0, 0
	for _, blk := range p.Valid {
		for _, v := range blk {
			n++
			if v {
				ok++
			}
		}
	}
	return float64(ok) / float64(n)
}
