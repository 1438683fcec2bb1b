// Package telemetry is the process-wide observability plane: a registry of
// atomic counters, fixed-bucket latency histograms and scrape-time reads of
// the counts subsystems keep themselves, a per-block flight recorder that
// stamps lifecycle span events, and an opt-in HTTP server exposing both live
// (Prometheus text /metrics, /debug/pprof/*, a /trace JSONL stream). Summary
// is the repo's one latency digest, exact from raw samples (Summarize) or
// bucketed from a histogram (Histogram.Snapshot).
//
// The package follows the repo's zero-cost-when-off discipline (the same
// contract as statedb.SetCountAccesses): every instrument is nil-safe, and a
// disabled telemetry plane is represented by nil pointers everywhere. A hot
// path holding a nil *Counter or nil *Histogram pays exactly one predicted
// branch per call and performs no allocation, no atomic operation and no
// time.Now. Instruments are only non-nil when a Registry exists, and a
// Registry only exists when the telemetry: config section enables it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. A nil Counter is
// valid and ignores all writes.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
// bmaclint:noalloc
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored; counters are monotone).
//
// bmaclint:noalloc
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
//
// bmaclint:noalloc
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two duration buckets. Bucket i
// covers durations up to 1µs<<i, so the range spans 1µs to ~1.2h, which
// comfortably brackets everything from a cache probe to a stalled
// experiment. Fixed log2 bucketing keeps Observe to two atomic adds and a
// bits.Len64 — no per-observation allocation, sorting or locking.
const histBuckets = 33

// Histogram is a fixed-bucket latency histogram with power-of-two duration
// buckets and atomic counts. Quantile readout returns the upper bound of
// the bucket holding the ceil nearest-rank sample, so reported percentiles
// are conservative (never below the true value) with ≤2x resolution.
// A nil Histogram is valid and ignores all observations.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// bucketFor maps a duration to its bucket index: the first bucket whose
// bound is at or above d, so a part-microsecond rounds up, never down.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if d%time.Microsecond != 0 {
		us++
	}
	if us <= 1 {
		return 0
	}
	b := bits.Len64(uint64(us) - 1) // ceil(log2(us))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// Observe records one duration.
//
// bmaclint:noalloc
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (0 for nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Quantile returns the upper bucket bound holding the ceil nearest-rank
// sample for percentile p in (0,100]. The true max is returned for the
// final occupied bucket so Quantile(100) == Max.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(nearestRank(p, int(n)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			// Clamp to the true max: the top occupied bucket's bound can
			// overshoot by up to 2x, and the max is known exactly. The last
			// bucket also holds everything above its bound, so its only
			// upper bound is the max.
			bound := bucketBound(i)
			if m := time.Duration(h.max.Load()); m < bound || i == histBuckets-1 {
				return m
			}
			return bound
		}
	}
	return time.Duration(h.max.Load())
}

// nearestRank returns the 1-based rank of percentile p (0 < p <= 100) in n
// sorted samples by the ceil nearest-rank rule: the smallest rank with at
// least ceil(p/100*n) samples at or below it. Truncation instead of ceil
// would over-index small sets — the P50 of two samples must be the smaller
// one, not the larger.
func nearestRank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// Summary is the one latency digest, the p50/p95/p99 tail Caliper reports
// for a run: exact from raw samples (Summarize), or read from a
// histogram's buckets (Histogram.Snapshot).
type Summary struct {
	Count          int
	Sum, Mean, Max time.Duration
	P50, P95, P99  time.Duration
}

// Summarize digests raw samples exactly, by the ceil nearest-rank rule. It
// sorts ds in place.
func Summarize(ds []time.Duration) Summary {
	n := len(ds)
	if n == 0 {
		return Summary{}
	}
	slices.Sort(ds)
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	at := func(p float64) time.Duration { return ds[nearestRank(p, n)-1] }
	return Summary{
		Count: n, Sum: sum, Mean: sum / time.Duration(n), Max: ds[n-1],
		P50: at(50), P95: at(95), P99: at(99),
	}
}

// Snapshot digests the histogram from its buckets: Count, Sum and Max are
// exact, and each quantile is at or above the exact one.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: int(h.Count()),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(50),
		P95:   h.Quantile(95),
		P99:   h.Quantile(99),
	}
}

// String renders the summary as one compact report line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}

// Registry is the process-wide instrument table. Instruments are created on
// first use and shared thereafter (get-or-create by name), so any subsystem
// can ask for "its" instrument without plumbing handles around. The
// registry stores only what no subsystem keeps (histograms, per-engine
// totals); GaugeFunc registers a scrape-time callback instead of a stored
// value — the read adapter that exports every count a subsystem already
// maintains under its own lock (ledger, delivery, orderer and load
// counters, cache hit counts, statedb access counts) with zero hot-path
// cost.
//
// A nil Registry is valid: every lookup returns a nil instrument, which in
// turn ignores all writes. That chain is what makes disabled telemetry
// free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter     // guarded by mu
	histograms map[string]*Histogram   // guarded by mu
	gaugeFuncs map[string]func() int64 // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// Name renders a metric name with label pairs in Prometheus form:
// Name("x_total", "peer", "p0") == `x_total{peer="p0"}`.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Nil
// registry returns nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers (or replaces) a callback evaluated at scrape time.
// The callback must be safe to call from the scrape goroutine. Nil registry
// and nil fn are no-ops.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// addLabel splices one more label pair into an already-rendered metric
// name: addLabel(`x{a="1"}`, "quantile", "0.5") == `x{a="1",quantile="0.5"}`.
func addLabel(name, k, v string) string {
	if strings.HasSuffix(name, "}") {
		return fmt.Sprintf("%s,%s=%q}", strings.TrimSuffix(name, "}"), k, v)
	}
	return fmt.Sprintf("%s{%s=%q}", name, k, v)
}

// WritePrometheus renders every instrument in Prometheus text exposition
// format, sorted by name for stable output. Histograms export count, sum
// (seconds) and p50/p95/p99 quantile gauges; GaugeFunc callbacks are
// evaluated inline.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hists[n] = h
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for n, f := range r.gaugeFuncs {
		funcs[n] = f
	}
	r.mu.Unlock()

	lines := make([]string, 0, len(counters)+len(funcs)+5*len(hists))
	for n, v := range counters {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, f := range funcs {
		lines = append(lines, fmt.Sprintf("%s %d", n, f()))
	}
	for n, h := range hists {
		s := h.Snapshot()
		lines = append(lines,
			fmt.Sprintf("%s %d", addLabel(n, "stat", "count"), s.Count),
			fmt.Sprintf("%s %g", addLabel(n, "stat", "sum"), s.Sum.Seconds()),
			fmt.Sprintf("%s %g", addLabel(n, "quantile", "0.5"), s.P50.Seconds()),
			fmt.Sprintf("%s %g", addLabel(n, "quantile", "0.95"), s.P95.Seconds()),
			fmt.Sprintf("%s %g", addLabel(n, "quantile", "0.99"), s.P99.Seconds()),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the full Prometheus exposition as a string ("" for nil).
func (r *Registry) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b) // bmaclint:allow errdiscard (in-memory buffer write cannot fail)
	return b.String()
}
