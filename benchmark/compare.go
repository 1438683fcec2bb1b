package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadRecords reads a -record file and groups the untraced results'
// end-to-end values by workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and the third quartile as a
// share of the median; with fewer than four values, the full range.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := quantile(xs, 0.25), quantile(xs, 0.75)
	if len(xs) < 4 {
		lo, hi = quantile(xs, 0), quantile(xs, 1)
	}
	return ratio(hi-lo, median(xs))
}

// compareFiles applies the benchmark's bounds to two sets of runs. For every
// workload and end-to-end metric it prints both medians, how much worse the
// change is as a share of the base, and a verdict: ok when that is within
// the metric's bound, regressed when it is beyond, and unresolved when the
// base's own run-to-run spread exceeds the bound, so that neither can be
// said. It returns an error when anything regressed.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-8s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "change", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := base[wl.Name][d.Name], change[wl.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(a), spread(b))
			verdict := "ok"
			switch {
			case sp > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-8s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d)\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*sp, 100*d.Bound, verdict, len(a), len(b))
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}
