package telemetry

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func msSamples(vals ...int) []time.Duration {
	ds := make([]time.Duration, len(vals))
	for i, v := range vals {
		ds[i] = time.Duration(v) * time.Millisecond
	}
	return ds
}

func oneToHundredMs() []time.Duration {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond // unsorted on purpose
	}
	return ds
}

func sortedCopy(ds []time.Duration) []time.Duration {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds
}

func TestSummarize(t *testing.T) {
	s := Summarize(oneToHundredMs())
	want := Summary{
		Count: 100, Sum: 5050 * time.Millisecond, Mean: 50500 * time.Microsecond, Max: 100 * time.Millisecond,
		P50: 50 * time.Millisecond, P95: 95 * time.Millisecond, P99: 99 * time.Millisecond,
	}
	if s != want {
		t.Fatalf("Summarize(1..100ms) = %+v, want %+v", s, want)
	}
	if got := Summarize(msSamples(10, 20)).P50; got != 10*time.Millisecond {
		t.Errorf("P50 of two samples = %v, want the smaller one", got)
	}
}

// TestNearestRank pins the ceil nearest-rank rule on small sample sets,
// where a truncating index over-indexes (P50 of two samples would return
// the larger one).
func TestNearestRank(t *testing.T) {
	cases := []struct {
		name string
		s    []time.Duration
		p    float64
		want time.Duration
	}{
		{"n1 p1", msSamples(10), 1, 10 * time.Millisecond},
		{"n1 p50", msSamples(10), 50, 10 * time.Millisecond},
		{"n1 p100", msSamples(10), 100, 10 * time.Millisecond},
		{"n2 p50 is the smaller sample", msSamples(10, 20), 50, 10 * time.Millisecond},
		{"n2 p51", msSamples(10, 20), 51, 20 * time.Millisecond},
		{"n2 p99", msSamples(10, 20), 99, 20 * time.Millisecond},
		{"n2 p100", msSamples(10, 20), 100, 20 * time.Millisecond},
		{"n3 p33 is the first sample", msSamples(10, 20, 30), 33, 10 * time.Millisecond},
		{"n3 p34", msSamples(10, 20, 30), 34, 20 * time.Millisecond},
		{"n3 p50 is the median", msSamples(10, 20, 30), 50, 20 * time.Millisecond},
		{"n3 p67", msSamples(10, 20, 30), 67, 30 * time.Millisecond},
		{"n3 p100", msSamples(10, 20, 30), 100, 30 * time.Millisecond},
		{"n4 p25", msSamples(10, 20, 30, 40), 25, 10 * time.Millisecond},
		{"n4 p50", msSamples(10, 20, 30, 40), 50, 20 * time.Millisecond},
		{"n100 p50", sortedCopy(oneToHundredMs()), 50, 50 * time.Millisecond},
		{"n100 p99", sortedCopy(oneToHundredMs()), 99, 99 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.s[nearestRank(tc.p, len(tc.s))-1]; got != tc.want {
			t.Errorf("%s: percentile %v = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) || s.String() != "no samples" {
		t.Errorf("Summarize(nil) = %+v (%q), want zeros", s, s.String())
	}
}

// TestSnapshotAgreesWithSummarize holds the histogram to its doc: for the
// same samples it reports the exact Count, Sum, Mean and Max, and each
// quantile at or above the exact one, by at most 2x (the bucket width)
// or within the first bucket.
func TestSnapshotAgreesWithSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	sets := [][]time.Duration{
		msSamples(10),
		msSamples(10, 20),
		msSamples(10, 20, 30),
		oneToHundredMs(),
		{1500 * time.Nanosecond, 2500 * time.Nanosecond, 999 * time.Nanosecond},
		{90 * time.Minute, 3 * time.Hour}, // above the last bucket's bound
	}
	for _, n := range []int{1, 2, 7, 100, 1000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			// Log-uniform from 100ns to ~10s, at nanosecond resolution.
			ds[i] = time.Duration(100 * float64(uint64(1)<<rng.Intn(27)) * (1 + rng.Float64()))
		}
		sets = append(sets, ds)
	}
	for i, ds := range sets {
		var h Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		exact, got := Summarize(ds), h.Snapshot()
		if got.Count != exact.Count || got.Sum != exact.Sum || got.Mean != exact.Mean || got.Max != exact.Max {
			t.Errorf("set %d: snapshot %+v, exact %+v: Count/Sum/Mean/Max differ", i, got, exact)
		}
		for _, q := range []struct {
			name     string
			got, was time.Duration
		}{{"p50", got.P50, exact.P50}, {"p95", got.P95, exact.P95}, {"p99", got.P99, exact.P99}} {
			if q.got < q.was {
				t.Errorf("set %d: histogram %s = %v below the exact %v", i, q.name, q.got, q.was)
			}
			if q.was <= bucketBound(histBuckets-1) && q.got > max(2*q.was, time.Microsecond) {
				t.Errorf("set %d: histogram %s = %v, more than 2x the exact %v", i, q.name, q.got, q.was)
			}
		}
	}
}
