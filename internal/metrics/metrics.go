// Package metrics provides the measurement utilities used by the
// experiment harness: latency samples with percentiles and throughput
// computation, matching how the paper reports block-level statistics
// through Caliper (§4.1).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Samples collects duration observations. All methods are safe for
// concurrent use: the load driver's client goroutines Add while the
// reporting goroutine reads a Summary, so the collection is mutex-guarded
// (sampling happens at block/report granularity, never on a per-signature
// hot path, so the lock is not a throughput concern).
type Samples struct {
	mu     sync.Mutex
	values []time.Duration // guarded by mu
	sorted bool            // guarded by mu
}

// Add records one observation.
func (s *Samples) Add(d time.Duration) {
	s.mu.Lock()
	s.values = append(s.values, d)
	s.sorted = false
	s.mu.Unlock()
}

// ensureSorted must be called with s.mu held.
func (s *Samples) ensureSorted() {
	if !s.sorted {
		sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by the ceil
// nearest-rank rule: the smallest value with at least ceil(p/100*n) samples
// at or below it. Truncation instead of ceil would over-index small sets —
// the P50 of two samples must be the smaller one, not the larger.
func (s *Samples) Percentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.percentileLocked(p)
}

func (s *Samples) percentileLocked(p float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	idx := int(math.Ceil(p/100*float64(len(s.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

// Mean returns the arithmetic mean.
func (s *Samples) Mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meanLocked()
}

func (s *Samples) meanLocked() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.values {
		sum += v
	}
	return sum / time.Duration(len(s.values))
}

func (s *Samples) maxLocked() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// LatencySummary is the tail-latency digest reported by the load driver
// and the cluster experiment: count, mean and the p50/p95/p99 tail.
type LatencySummary struct {
	Count              int
	Mean               time.Duration
	P50, P95, P99, Max time.Duration
}

// Summary digests the samples into a LatencySummary. The digest is
// computed under one lock acquisition, so it is internally consistent even
// while other goroutines Add.
func (s *Samples) Summary() LatencySummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LatencySummary{
		Count: len(s.values),
		Mean:  s.meanLocked(),
		P50:   s.percentileLocked(50),
		P95:   s.percentileLocked(95),
		P99:   s.percentileLocked(99),
		Max:   s.maxLocked(),
	}
}

// String renders the summary as one compact report line.
func (l LatencySummary) String() string {
	if l.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		l.Count, l.Mean.Round(time.Microsecond), l.P50.Round(time.Microsecond),
		l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond),
		l.Max.Round(time.Microsecond))
}

// Throughput converts a transaction count over a total duration into tps.
func Throughput(txs int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(txs) / elapsed.Seconds()
}

// Table is a simple fixed-width text table used by the bench harness to
// print figure/table rows.
type Table struct {
	Header []string
	Rows   [][]string
	// Notes are free-form text blocks (possibly multi-line) rendered after
	// the rows — supplementary material like per-stage latency budgets that
	// does not fit the column grid.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a supplementary text block.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteByte('\n')
		b.WriteString(strings.TrimRight(n, "\n"))
		b.WriteByte('\n')
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FormatTPS renders a throughput with thousands separators, e.g. "38,400".
func FormatTPS(tps float64) string {
	n := int64(tps + 0.5)
	if n < 1000 {
		return fmt.Sprintf("%d", n)
	}
	var parts []string
	for n > 0 {
		if n >= 1000 {
			parts = append([]string{fmt.Sprintf("%03d", n%1000)}, parts...)
		} else {
			parts = append([]string{fmt.Sprintf("%d", n%1000)}, parts...)
		}
		n /= 1000
	}
	return strings.Join(parts, ",")
}
