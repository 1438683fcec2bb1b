package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	var s Samples
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(50); got < 49*time.Millisecond || got > 52*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(95); got < 94*time.Millisecond || got > 97*time.Millisecond {
		t.Errorf("p95 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Summary().Max; got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if s.Mean() != 50500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean())
	}
}

// TestPercentileNearestRank pins the ceil nearest-rank rule on small
// sample sets, where the old truncating index over-indexed (P50 of two
// samples returned the larger one).
func TestPercentileNearestRank(t *testing.T) {
	ms := func(vals ...int) *Samples {
		var s Samples
		for _, v := range vals {
			s.Add(time.Duration(v) * time.Millisecond)
		}
		return &s
	}
	cases := []struct {
		name string
		s    *Samples
		p    float64
		want time.Duration
	}{
		{"n1 p1", ms(10), 1, 10 * time.Millisecond},
		{"n1 p50", ms(10), 50, 10 * time.Millisecond},
		{"n1 p100", ms(10), 100, 10 * time.Millisecond},
		{"n2 p50 is the smaller sample", ms(10, 20), 50, 10 * time.Millisecond},
		{"n2 p51", ms(10, 20), 51, 20 * time.Millisecond},
		{"n2 p99", ms(10, 20), 99, 20 * time.Millisecond},
		{"n2 p100", ms(10, 20), 100, 20 * time.Millisecond},
		{"n3 p33 is the first sample", ms(10, 20, 30), 33, 10 * time.Millisecond},
		{"n3 p34", ms(10, 20, 30), 34, 20 * time.Millisecond},
		{"n3 p50 is the median", ms(10, 20, 30), 50, 20 * time.Millisecond},
		{"n3 p67", ms(10, 20, 30), 67, 30 * time.Millisecond},
		{"n3 p100", ms(10, 20, 30), 100, 30 * time.Millisecond},
		{"n4 p25", ms(10, 20, 30, 40), 25, 10 * time.Millisecond},
		{"n4 p50", ms(10, 20, 30, 40), 50, 20 * time.Millisecond},
		{"n100 p50", func() *Samples {
			var s Samples
			for i := 1; i <= 100; i++ {
				s.Add(time.Duration(i) * time.Millisecond)
			}
			return &s
		}(), 50, 50 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.s.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

// TestConcurrentAddSummary is the -race regression for the load driver's
// usage pattern: client goroutines Add while the reporter reads summaries.
func TestConcurrentAddSummary(t *testing.T) {
	var s Samples
	var adders, readers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		adders.Add(1)
		go func(i int) {
			defer adders.Done()
			for j := 0; j < 500; j++ {
				s.Add(time.Duration(i*500+j) * time.Microsecond)
			}
		}(i)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum := s.Summary()
			if sum.Count > 0 && (sum.P50 > sum.P99 || sum.P99 > sum.Max) {
				t.Error("inconsistent summary under concurrency")
				return
			}
			s.Percentile(95)
			s.Mean()
		}
	}()
	adders.Wait()
	close(stop)
	readers.Wait()
	sum := s.Summary()
	if sum.Count != 2000 || sum.Max != 1999*time.Microsecond {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestEmptySamples(t *testing.T) {
	var s Samples
	if s.Percentile(95) != 0 || s.Mean() != 0 || s.Summary() != (LatencySummary{}) {
		t.Error("empty samples should report zeros")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("tps = %f", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("tps = %f", got)
	}
	if Throughput(5, 0) != 0 {
		t.Error("zero elapsed should give 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Header: []string{"block size", "sw tps", "bmac tps"}}
	tbl.AddRow("100", "3,900", "10,700")
	tbl.AddRow("250", "5,600", "38,400")
	out := tbl.String()
	if !strings.Contains(out, "block size") || !strings.Contains(out, "38,400") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("table lines = %d", len(lines))
	}
}

func TestFormatTPS(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{38400, "38,400"},
		{68900.4, "68,900"},
		{1234567, "1,234,567"},
	}
	for _, tt := range tests {
		if got := FormatTPS(tt.in); got != tt.want {
			t.Errorf("FormatTPS(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
