package bmac

// One testing.B benchmark per table and figure of the paper's evaluation
// (§4.3). Each bench exercises the measured code path for its experiment
// and reports the figure's headline quantity as a custom metric; the full
// row-by-row reproduction (the exact series the paper plots) is printed by
// `go run ./cmd/bmacbench`.

import (
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/experiments"
	"bmac/internal/hwsim"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFigure3 measures the software validator's profile on one block:
// the ecdsa_verify share of busy time is the figure's headline (paper ~40%).
func BenchmarkFigure3(b *testing.B) {
	env := benchEnv(b)
	spec := experiments.BlockSpec{Txs: 100, Endorsements: 2, Reads: 2, Writes: 2}
	if _, err := env.MeasureSW(spec, "2of2", 8, 1); err != nil {
		b.Fatal(err) // warm the block cache
	}
	b.ResetTimer()
	var ecdsaFrac float64
	for i := 0; i < b.N; i++ {
		bd, err := env.MeasureSW(spec, "2of2", 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		busy := bd.ECDSATime + bd.SHA256Time + bd.Unmarshal + bd.StateDB
		ecdsaFrac = float64(bd.ECDSATime) / float64(busy)
	}
	b.ReportMetric(ecdsaFrac*100, "ecdsa_%")
}

// BenchmarkFigure9aBandwidth measures BMac protocol encoding and reports
// the compression ratio vs the marshaled (Gossip) block (paper 3.4-5.3x).
func BenchmarkFigure9aBandwidth(b *testing.B) {
	env := benchEnv(b)
	blk, err := env.MakeBlock(experiments.BlockSpec{Txs: 150, Endorsements: 2, Reads: 2, Writes: 2})
	if err != nil {
		b.Fatal(err)
	}
	gossipBytes := len(block.Marshal(blk))
	sender := bmacproto.NewSender(identity.NewCache(), nil)
	if err := sender.RegisterNetwork(env.Net); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(gossipBytes))
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, stats, err := sender.EncodeBlock(blk)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(gossipBytes) / float64(stats.Bytes)
	}
	b.ReportMetric(ratio, "compression_x")
}

// BenchmarkFigure9bTransmission samples the 1 Gbps link model and reports
// the p95 latency reduction (paper ~30%).
func BenchmarkFigure9bTransmission(b *testing.B) {
	link := hwsim.NewLink(7)
	var reduction float64
	for i := 0; i < b.N; i++ {
		var g, m time.Duration
		for j := 0; j < 100; j++ {
			if t := link.GossipTime(600_000); t > g {
				g = t
			}
			if t := link.BMacTime(150_000, 152); t > m {
				m = t
			}
		}
		reduction = 1 - float64(m)/float64(g)
	}
	b.ReportMetric(reduction*100, "p_reduction_%")
}

// BenchmarkFigure10Breakdown measures one software validation pass of the
// Figure 10 configuration (block 200, 8 workers) and reports the overall
// speedup vs the simulated BMac pipeline (paper 4.4x).
func BenchmarkFigure10Breakdown(b *testing.B) {
	env := benchEnv(b)
	spec := experiments.BlockSpec{Txs: 200, Endorsements: 2, Reads: 2, Writes: 2}
	hw := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2},
		policy.Compile(policytest.MustParse("2of2")),
		hwsim.UniformTxProfile(spec.Txs, 2, 2, 2))
	if _, err := env.MeasureSW(spec, "2of2", 8, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		sw, err := env.MeasureSW(spec, "2of2", 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(sw.VerifyVSCC+sw.StateDB+sw.Unmarshal) / float64(hw.BlockLatency())
	}
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkFigure11 sweeps the smallbank throughput experiment's axes as
// sub-benchmarks, reporting sw (measured) and bmac (simulated) tps.
func BenchmarkFigure11(b *testing.B) {
	env := benchEnv(b)
	for _, bs := range []int{50, 250} {
		for _, par := range []int{4, 16} {
			spec := experiments.BlockSpec{Txs: bs, Endorsements: 2, Reads: 2, Writes: 2}
			b.Run(benchName("block", bs, "par", par), func(b *testing.B) {
				if _, err := env.MeasureSW(spec, "2of2", par, 1); err != nil {
					b.Fatal(err)
				}
				hw := hwsim.Simulate(hwsim.Config{TxValidators: par, VSCCEngines: 2},
					policy.Compile(policytest.MustParse("2of2")),
					hwsim.UniformTxProfile(bs, 2, 2, 2))
				b.ResetTimer()
				var swTPS float64
				for i := 0; i < b.N; i++ {
					bd, err := env.MeasureSW(spec, "2of2", par, 1)
					if err != nil {
						b.Fatal(err)
					}
					swTPS = float64(bs) / bd.Total.Seconds()
				}
				b.ReportMetric(swTPS, "sw_tps")
				b.ReportMetric(hw.Throughput(bs), "bmac_tps")
			})
		}
	}
}

// BenchmarkFigure12aPolicies sweeps the endorsement policies.
func BenchmarkFigure12aPolicies(b *testing.B) {
	env := benchEnv(b)
	cases := []struct {
		name string
		pol  string
		ends int
	}{
		{"1of1", "1of1", 1}, {"2of2", "2of2", 2},
		{"2of3", "2of3", 3}, {"3of3", "3of3", 3},
	}
	for _, pc := range cases {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			spec := experiments.BlockSpec{Txs: 150, Endorsements: pc.ends, Reads: 2, Writes: 2}
			if _, err := env.MeasureSW(spec, pc.pol, 8, 1); err != nil {
				b.Fatal(err)
			}
			hw := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2},
				policy.Compile(policytest.MustParse(pc.pol)),
				hwsim.UniformTxProfile(150, pc.ends, 2, 2))
			b.ResetTimer()
			var swTPS float64
			for i := 0; i < b.N; i++ {
				bd, err := env.MeasureSW(spec, pc.pol, 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				swTPS = 150 / bd.Total.Seconds()
			}
			b.ReportMetric(swTPS, "sw_tps")
			b.ReportMetric(hw.Throughput(150), "bmac_tps")
		})
	}
}

// BenchmarkFigure12bArchitectures compares 8x2 and 5x3 (simulator).
func BenchmarkFigure12bArchitectures(b *testing.B) {
	for _, arch := range []struct{ n, e int }{{8, 2}, {5, 3}} {
		arch := arch
		b.Run(benchName("arch", arch.n, "x", arch.e), func(b *testing.B) {
			circ3 := policy.Compile(policytest.MustParse("3of3"))
			var tps float64
			for i := 0; i < b.N; i++ {
				t := hwsim.Simulate(hwsim.Config{TxValidators: arch.n, VSCCEngines: arch.e},
					circ3, hwsim.UniformTxProfile(150, 3, 2, 2))
				tps = t.Throughput(150)
			}
			b.ReportMetric(tps, "bmac_tps_3of3")
		})
	}
}

// BenchmarkFigure12cDBRequests sweeps the database request counts.
func BenchmarkFigure12cDBRequests(b *testing.B) {
	env := benchEnv(b)
	for _, rw := range []int{2, 9} {
		rw := rw
		b.Run(benchName("rw", rw, "", 0), func(b *testing.B) {
			spec := experiments.BlockSpec{Txs: 150, Endorsements: 2, Reads: rw, Writes: rw}
			if _, err := env.MeasureSW(spec, "2of2", 8, 1); err != nil {
				b.Fatal(err)
			}
			hw := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2},
				policy.Compile(policytest.MustParse("2of2")),
				hwsim.UniformTxProfile(150, 2, rw, rw))
			b.ResetTimer()
			var swTPS float64
			for i := 0; i < b.N; i++ {
				bd, err := env.MeasureSW(spec, "2of2", 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				swTPS = 150 / bd.Total.Seconds()
			}
			b.ReportMetric(swTPS, "sw_tps")
			b.ReportMetric(hw.Throughput(150), "bmac_tps")
		})
	}
}

// BenchmarkFigure13DRM measures the drm-shaped workload (1r/1w).
func BenchmarkFigure13DRM(b *testing.B) {
	env := benchEnv(b)
	spec := experiments.BlockSpec{Txs: 150, Endorsements: 2, Reads: 1, Writes: 1}
	if _, err := env.MeasureSW(spec, "2of2", 8, 1); err != nil {
		b.Fatal(err)
	}
	hw := hwsim.Simulate(hwsim.Config{TxValidators: 8, VSCCEngines: 2},
		policy.Compile(policytest.MustParse("2of2")),
		hwsim.UniformTxProfile(150, 2, 1, 1))
	b.ResetTimer()
	var swTPS float64
	for i := 0; i < b.N; i++ {
		bd, err := env.MeasureSW(spec, "2of2", 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		swTPS = 150 / bd.Total.Seconds()
	}
	b.ReportMetric(swTPS, "sw_tps")
	b.ReportMetric(hw.Throughput(150), "bmac_tps")
}

// BenchmarkTable1Resources evaluates the resource model (reports 16x2 LUT%).
func BenchmarkTable1Resources(b *testing.B) {
	var lut float64
	for i := 0; i < b.N; i++ {
		for _, arch := range [][2]int{{4, 2}, {5, 3}, {8, 2}, {12, 2}, {16, 2}} {
			u := hwsim.Resources(arch[0], arch[1])
			lut = u.LUTPct
		}
	}
	b.ReportMetric(lut, "lut_16x2_%")
}

// BenchmarkHybridPrefetch measures the §5 hybrid hardware/host database
// under the commit engine at smallbank Zipf skew 1.0: throughput with a
// modeled host-read latency, prefetch off vs on. The headline metrics are
// the hybrid hit rate and the fraction of latency-lost throughput the
// async read-set prefetch recovers by hiding host reads under vscc.
func BenchmarkHybridPrefetch(b *testing.B) {
	env := benchEnv(b)
	spec := experiments.HybridSpec{
		Blocks: 8, Txs: 64, Endorsements: 2,
		Accounts: 1024, ReadsPerTx: 3,
		Skew:            1.0,
		Capacity:        512,
		HostLatency:     400 * time.Microsecond,
		Workers:         0, // GOMAXPROCS
		PrefetchWorkers: 16,
		Seed:            1,
	}
	b.ResetTimer()
	var pt experiments.HybridPoint
	for i := 0; i < b.N; i++ {
		var err error
		pt, err = env.MeasureHybrid(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pt.PrefetchTPS, "prefetch_tps")
	b.ReportMetric(pt.NoPrefetchTPS, "no_prefetch_tps")
	b.ReportMetric(pt.HitRate*100, "hit_%")
	b.ReportMetric(pt.Recovered()*100, "recovered_%")
}

// BenchmarkHeadline reports the paper's headline speedup: simulated BMac
// peak vs measured 16-worker software validation (paper ~12x).
func BenchmarkHeadline(b *testing.B) {
	env := benchEnv(b)
	spec := experiments.BlockSpec{Txs: 250, Endorsements: 2, Reads: 2, Writes: 2}
	if _, err := env.MeasureSW(spec, "2of2", 16, 1); err != nil {
		b.Fatal(err)
	}
	hw := hwsim.Simulate(hwsim.Config{TxValidators: 46, VSCCEngines: 2},
		policy.Compile(policytest.MustParse("2of2")),
		hwsim.UniformTxProfile(250, 2, 2, 2))
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		sw, err := env.MeasureSW(spec, "2of2", 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = hw.Throughput(250) / (250 / sw.Total.Seconds())
	}
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(hw.Throughput(250), "bmac_peak_tps")
}

func benchName(k1 string, v1 int, k2 string, v2 int) string {
	name := k1 + "=" + itoa(v1)
	if k2 != "" {
		name += "/" + k2 + "=" + itoa(v2)
	}
	return name
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
