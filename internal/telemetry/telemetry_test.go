package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(50) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram readout")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Text() != "" {
		t.Fatal("nil registry text")
	}

	var rec *Recorder
	rec.Stamp(1, StageCommit, "p", time.Now(), time.Now(), 1)
	if rec.Len() != 0 || rec.Events() != nil || rec.Budget() != nil {
		t.Fatal("nil recorder must ignore everything")
	}
	if _, ok := rec.StageEnd(1, StageCommit); ok {
		t.Fatal("nil recorder StageEnd")
	}

	// Nil bundle: every observe is a no-op.
	var vm *ValidatorMetrics
	vm.ObserveBlock(3, 1, 1, 1, 1, 1, 1, 1, 1)
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-2) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create must return the same counter")
	}
	// A GaugeFunc reads its source at every scrape, and a second
	// registration under the same name replaces the first.
	v := int64(7)
	r.GaugeFunc("g", func() int64 { return v })
	v -= 3
	if text := r.Text(); !strings.Contains(text, "g 4\n") {
		t.Fatalf("gauge func not read at scrape time:\n%s", text)
	}
	r.GaugeFunc("g", func() int64 { return 11 })
	if text := r.Text(); !strings.Contains(text, "g 11\n") || strings.Contains(text, "g 4\n") {
		t.Fatalf("re-registered gauge func not replaced:\n%s", text)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds")
	// 100 observations 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	// Power-of-two buckets: the quantile is the bucket upper bound, so it
	// must be >= the true percentile and < 2x above it.
	for _, tc := range []struct {
		p    float64
		true time.Duration
	}{{50, 50 * time.Millisecond}, {95, 95 * time.Millisecond}, {99, 99 * time.Millisecond}} {
		got := h.Quantile(tc.p)
		if got < tc.true || got > 2*tc.true {
			t.Fatalf("p%.0f = %v, want in [%v, %v]", tc.p, got, tc.true, 2*tc.true)
		}
	}
	// Quantile(100) clamps to the exact max.
	if got := h.Quantile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100*time.Millisecond || s.P50 < 50*time.Millisecond {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean < 50*time.Millisecond || s.Mean > 51*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	// One sample: every quantile is that sample (clamped to true max).
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Quantile(p); got != 3*time.Millisecond {
			t.Fatalf("p%v = %v, want 3ms", p, got)
		}
	}
	h.Observe(0) // sub-microsecond lands in bucket 0
	if h.Count() != 2 {
		t.Fatal("count")
	}
	if got := h.Quantile(50); got > time.Microsecond {
		t.Fatalf("p50 after tiny sample = %v", got)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {time.Nanosecond, 0}, {time.Microsecond, 0},
		{2 * time.Microsecond, 1}, {3 * time.Microsecond, 2}, {4 * time.Microsecond, 2},
		{time.Millisecond, 10}, {time.Second, 20}, {2 * time.Hour, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.d); got != tc.want {
			t.Fatalf("bucketFor(%v) = %d, want %d", tc.d, got, tc.want)
		}
		if tc.d > 0 && bucketBound(bucketFor(tc.d)) < tc.d && bucketFor(tc.d) != histBuckets-1 {
			t.Fatalf("bound(bucketFor(%v)) = %v below the value", tc.d, bucketBound(bucketFor(tc.d)))
		}
	}
}

func TestName(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Fatal(got)
	}
	if got := Name("x_total", "peer", "p0"); got != `x_total{peer="p0"}` {
		t.Fatal(got)
	}
	if got := Name("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Fatal(got)
	}
	if got := addLabel(`x{a="1"}`, "q", "0.5"); got != `x{a="1",q="0.5"}` {
		t.Fatal(got)
	}
	if got := addLabel("x", "q", "0.5"); got != `x{q="0.5"}` {
		t.Fatal(got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.GaugeFunc("a_gauge", func() int64 { return 9 })
	r.GaugeFunc("f_gauge", func() int64 { return 42 })
	r.Histogram(Name("lat_seconds", "stage", "vscc")).Observe(2 * time.Millisecond)

	text := r.Text()
	for _, want := range []string{
		"a_gauge 9\n",
		"b_total 2\n",
		"f_gauge 42\n",
		`lat_seconds{stage="vscc",stat="count"} 1`,
		`lat_seconds{stage="vscc",quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Stable: sorted output.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("output not sorted at line %d:\n%s", i, text)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared_total").Inc()
				r.Histogram("shared_seconds").Observe(time.Duration(j) * time.Microsecond)
				r.GaugeFunc(fmt.Sprintf("g%d", i), func() int64 { return int64(j) })
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = r.Text()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared_total").Value(); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
	}
}

func TestRecorderBudget(t *testing.T) {
	rec := NewRecorder()
	base := rec.epoch
	// Two blocks, contiguous spans: 10ms submit→endorse→commit tiling a
	// 30ms e2e each; one extra block without e2e (in flight) ignored.
	for blk := uint64(0); blk < 2; blk++ {
		t0 := base.Add(time.Duration(blk) * 50 * time.Millisecond)
		rec.Stamp(blk, StageSubmit, "", t0, t0.Add(10*time.Millisecond), 4)
		rec.Stamp(blk, StageEndorse, "", t0.Add(10*time.Millisecond), t0.Add(20*time.Millisecond), 0)
		rec.Stamp(blk, StageCommit, "peer0", t0.Add(20*time.Millisecond), t0.Add(30*time.Millisecond), 0)
		rec.Stamp(blk, StageE2E, "peer0", t0, t0.Add(30*time.Millisecond), 4)
	}
	rec.Stamp(9, StageSubmit, "", base, base.Add(time.Millisecond), 1)

	if end, ok := rec.StageEnd(0, StageEndorse); !ok || end.Sub(base) != 20*time.Millisecond {
		t.Fatalf("StageEnd = %v ok=%v", end.Sub(base), ok)
	}
	if st, ok := rec.StageStart(1, StageSubmit); !ok || st.Sub(base) != 50*time.Millisecond {
		t.Fatalf("StageStart = %v ok=%v", st.Sub(base), ok)
	}

	b := rec.Budget()
	if b.Blocks != 2 {
		t.Fatalf("blocks = %d", b.Blocks)
	}
	if b.E2E != 60*time.Millisecond || b.Covered != 60*time.Millisecond {
		t.Fatalf("e2e=%v covered=%v", b.E2E, b.Covered)
	}
	if b.Coverage < 0.999 || b.Coverage > 1.001 {
		t.Fatalf("coverage = %v", b.Coverage)
	}
	if len(b.Stages) != 3 {
		t.Fatalf("stages = %+v", b.Stages)
	}
	if b.Stages[0].Stage != StageSubmit || b.Stages[1].Stage != StageEndorse || b.Stages[2].Stage != StageCommit {
		t.Fatalf("stage order = %+v", b.Stages)
	}
	for _, st := range b.Stages {
		if st.Total != 20*time.Millisecond {
			t.Fatalf("stage %s total = %v", st.Stage, st.Total)
		}
	}
	if s := b.String(); !strings.Contains(s, "coverage 100.0%") || !strings.Contains(s, "submit") {
		t.Fatalf("budget string:\n%s", s)
	}
}

func TestRecorderClampsNegativeSpans(t *testing.T) {
	rec := NewRecorder()
	now := time.Now()
	rec.Stamp(0, StageOrder, "", now, now.Add(-time.Second), 0)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].DurUS != 0 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder()
	now := time.Now()
	rec.Stamp(3, StageVSCC, "peer1", now, now.Add(250*time.Microsecond), 16)
	rec.Stamp(3, StageMVCC, "peer1", now.Add(250*time.Microsecond), now.Add(300*time.Microsecond), 0)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("lines = %d", len(got))
	}
	if got[0].Stage != StageVSCC || got[0].Block != 3 || got[0].Txs != 16 || got[0].DurUS != 250 {
		t.Fatalf("event = %+v", got[0])
	}
	if got[1].StartUS != got[0].StartUS+got[0].DurUS {
		t.Fatalf("spans not contiguous: %+v", got)
	}
}

func TestRecorderConcurrentStamp(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			now := time.Now()
			for j := 0; j < 100; j++ {
				rec.Stamp(uint64(j), StageDeliver, fmt.Sprintf("p%d", i), now, now.Add(time.Millisecond), 0)
				rec.StageEnd(uint64(j), StageDeliver)
			}
		}(i)
	}
	go rec.Budget()
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("len = %d", rec.Len())
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	rec := NewRecorder()
	now := time.Now()
	rec.Stamp(0, StageCommit, "p0", now, now.Add(time.Millisecond), 2)

	srv, err := NewServer("127.0.0.1:0", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.SplitN(get("/trace"), "\n", 2)[0]), &ev); err != nil {
		t.Fatalf("/trace not JSONL: %v", err)
	}
	if ev.Stage != StageCommit {
		t.Fatalf("trace event = %+v", ev)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestViewsObserve(t *testing.T) {
	r := NewRegistry()
	vm := NewValidatorMetrics(r, "sequential")
	vm.ObserveBlock(8, time.Millisecond, time.Millisecond, 2*time.Millisecond,
		500*time.Microsecond, time.Millisecond, 300*time.Microsecond, 0, 6*time.Millisecond)
	if vm.Txs.Value() != 8 || vm.Total.Count() != 1 {
		t.Fatalf("validator counts: txs=%d blocks=%d", vm.Txs.Value(), vm.Total.Count())
	}
	if vm.VerifyVSCC.Count() != 1 {
		t.Fatal("vscc histogram")
	}
	text := r.Text()
	for _, want := range []string{
		`validator_stage_seconds{engine="sequential",stage="vscc",stat="count"} 1`,
		`validator_blocks_total{engine="sequential"} 1` + "\n",
		`validator_txs_total{engine="sequential"} 8` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// Disabled plane: the constructor returns nil on nil registry.
	if NewValidatorMetrics(nil, "x") != nil {
		t.Fatal("constructor must return nil for nil registry")
	}
}
