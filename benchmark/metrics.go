package main

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the root of
// the repo is printed from these tables (-manifest), so the two cannot drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression. The bounds are three times the
// widest run-to-run spread seen on a 2-CPU shared host (README.md), rounded
// up; p95_ms gets more because about one block in twelve collides with a
// garbage collection, which puts the 95th percentile on the knee between the
// two kinds of block.
var endToEnd = []metricDef{
	{"tps", "1/s", "higher", 0.15},
	{"p50_ms", "ms", "lower", 0.15},
	{"p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Every workload reports every per-layer metric; a layer that is not on a
// workload's path reports 0 for the metrics taken on the path, which is the
// statement "this layer did no work here".
var perLayer = []metricDef{
	{"client.queue_wait_us", "us", "lower", 0},
	{"client.submit_us", "us", "lower", 0},
	{"client.endorse_self_us", "us", "lower", 0},
	{"endorser.process_us", "us", "lower", 0},
	{"fabcrypto.sign_us", "us", "lower", 0},
	{"fabcrypto.verify_us", "us", "lower", 0},
	{"fabcrypto.sig_cache_hit_rate", "frac", "higher", 0},
	{"orderer.submit_us", "us", "lower", 0},
	{"orderer.wait_ms", "ms", "lower", 0},
	{"orderer.txs_per_block", "count", "higher", 0},
	{"orderer.blocks", "count", "lower", 0},
	{"ledger.append_us", "us", "lower", 0},
	{"ledger.bytes_per_tx", "bytes", "lower", 0},
	{"ledger.get_us", "us", "lower", 0},
	{"delivery.publish_us", "us", "lower", 0},
	{"delivery.deliver_ms", "ms", "lower", 0},
	{"delivery.bytes_per_tx", "bytes", "lower", 0},
	{"delivery.max_lag", "count", "lower", 0},
	{"wire.block_marshal_us", "us", "lower", 0},
	{"wire.block_unmarshal_us", "us", "lower", 0},
	{"peer.commit_ms", "ms", "lower", 0},
	{"validator.unmarshal_us_per_tx", "us", "lower", 0},
	{"validator.block_verify_us", "us", "lower", 0},
	{"validator.vscc_us_per_tx", "us", "lower", 0},
	{"validator.mvcc_us_per_tx", "us", "lower", 0},
	{"validator.statedb_us_per_tx", "us", "lower", 0},
	{"validator.ledger_us_per_block", "us", "lower", 0},
	{"validator.ecdsa_per_tx", "count", "lower", 0},
	{"validator.valid_frac", "frac", "higher", 0},
	{"validator.parse_cache_hit_rate", "frac", "higher", 0},
	{"pipeline.dep_edges_per_block", "count", "lower", 0},
	{"pipeline.critical_path", "count", "lower", 0},
	{"pipeline.prefetch_wait_us", "us", "lower", 0},
	{"statedb.reads_per_tx", "count", "lower", 0},
	{"statedb.writes_per_tx", "count", "lower", 0},
	{"statedb.write_batch_us", "us", "lower", 0},
	{"bmacproto.encode_us_per_block", "us", "lower", 0},
	{"bmacproto.transmit_us_per_block", "us", "lower", 0},
	{"bmacproto.packets_per_block", "count", "lower", 0},
	{"bmacproto.bytes_per_tx", "bytes", "lower", 0},
	{"bmacproto.compression_x", "x", "higher", 0},
	{"core.validate_us_per_block", "us", "lower", 0},
	{"core.mvcc_commit_us_per_block", "us", "lower", 0},
	{"core.ends_skipped_frac", "frac", "higher", 0},
	{"hwsim.sim_tps", "sim_1/s", "higher", 0},
	{"hwsim.sim_block_us", "sim_us", "lower", 0},
	{"proc.cpu_us_per_tx", "us", "lower", 0},
	{"proc.allocs_per_tx", "count", "lower", 0},
	{"proc.alloc_bytes_per_tx", "bytes", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	{"load.apply_wait_us", "us", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.coverage_frac", "frac", "higher", 0},
	{"host.speed", "1/s", "higher", 0},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"e2e_smallbank", "full path client-endorse-order-deliver-validate over TCP loopback; endorse and order dominate, validation is a minority share"},
	{"replay_seq", "pre-built low-conflict chain through the sequential peer: validator, statedb and ledger do all the work, the submit side none"},
	{"replay_par", "the same chain through the pipelined engine; replay_par over replay_seq is the multi-core row, and guards an engine merge"},
	{"replay_hot", "pipelined engine on Zipf 1.2 keys: many in-block conflicts, so dependency scheduling and mvcc aborts carry the load"},
	{"replay_bmac", "the uniform chain through the BMac protocol sender, link and hardware model: the only path through bmacproto and core"},
}

// value is one reported metric. N is the number of samples behind it; it is
// printed in the table and left out of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers and strings always marshals
	}
	return string(b)
}

// fill gives every metric of defs a value with its declared unit, so a
// workload reports the full set whatever its path touched.
func fill(defs []metricDef, got map[string]value) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := got[d.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. An empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is a stretch of a run: when it ran, the work done in it, and the
// latency of every operation that belongs to it. WaitMS, when set, is the
// part of each latency spent waiting on a timer rather than a CPU.
type window struct {
	From, To time.Time
	Work     float64 // transactions
	LatMS    []float64
	WaitMS   []float64
}

// atRef reports windows at the reference host speed (see hostspeed.go): every
// window's rate, and every latency with its CPU-bound part rescaled by the
// host's speed during its window.
func (m *hostMeter) atRef(ws []window) (rates, latMS []float64) {
	for _, w := range ws {
		if w.Work == 0 {
			continue
		}
		f := m.factor(w.From, w.To)
		rates = append(rates, f*ratio(w.Work, w.To.Sub(w.From).Seconds()))
		for i, l := range w.LatMS {
			wait := 0.0
			if w.WaitMS != nil {
				wait = min(w.WaitMS[i], l)
			}
			latMS = append(latMS, wait+(l-wait)/f)
		}
	}
	return rates, latMS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianCallUS times n calls of fn one by one and returns the median in
// microseconds; the first error stops it.
func medianCallUS(n int, fn func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, us(time.Since(t)))
	}
	return median(xs), nil
}
