package hwsim

import (
	"math"
	"testing"
	"time"

	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
)

func circuit(src string) *policy.Circuit {
	return policy.Compile(policytest.MustParse(src))
}

// within reports whether got is within frac of want.
func within(got, want, frac float64) bool {
	return math.Abs(got-want) <= frac*want
}

// TestFigure11Calibration checks the simulator against the paper's key
// Figure 11 data points (smallbank, 2of2 policy):
//
//	block 250, 16 tx_validators -> ~38,400 tps
//	block 250,  4 tx_validators -> ~10,700 tps (3.6x scaling 4->16)
func TestFigure11Calibration(t *testing.T) {
	c := circuit("2of2")
	txs := UniformTxProfile(250, 2, 2, 2)

	t16 := Simulate(Config{TxValidators: 16, VSCCEngines: 2}, c, txs)
	tput16 := t16.Throughput(250)
	if !within(tput16, 38400, 0.15) {
		t.Errorf("16 validators: %.0f tps, paper 38400 (+-15%%)", tput16)
	}

	t4 := Simulate(Config{TxValidators: 4, VSCCEngines: 2}, c, txs)
	tput4 := t4.Throughput(250)
	if !within(tput4, 10700, 0.15) {
		t.Errorf("4 validators: %.0f tps, paper 10700 (+-15%%)", tput4)
	}

	scaling := tput16 / tput4
	if !within(scaling, 3.6, 0.1) {
		t.Errorf("4->16 scaling = %.2fx, paper 3.6x", scaling)
	}
}

// TestSimulatorScalesBeyond16 reproduces the §4.3 simulator projections:
// ~100k tps at block 250 / 50 validators, ~150k tps at block 500 / 80.
func TestSimulatorScalesBeyond16(t *testing.T) {
	c := circuit("2of2")
	t50 := Simulate(Config{TxValidators: 50, VSCCEngines: 2}, c, UniformTxProfile(250, 2, 2, 2))
	if got := t50.Throughput(250); !within(got, 100000, 0.2) {
		t.Errorf("50 validators: %.0f tps, paper ~100k (+-20%%)", got)
	}
	t80 := Simulate(Config{TxValidators: 80, VSCCEngines: 2}, c, UniformTxProfile(500, 2, 2, 2))
	if got := t80.Throughput(500); !within(got, 150000, 0.25) {
		t.Errorf("80 validators: %.0f tps, paper ~150k (+-25%%)", got)
	}
}

// TestTxLatencyNearPaper checks the ~0.7 ms per-transaction validation
// latency reported in §4.3.
func TestTxLatencyNearPaper(t *testing.T) {
	c := circuit("2of2")
	timing := Simulate(Config{TxValidators: 16, VSCCEngines: 2}, c, UniformTxProfile(250, 2, 2, 2))
	if timing.TxLatency < 500*time.Microsecond || timing.TxLatency > 1200*time.Microsecond {
		t.Errorf("tx latency = %v, paper ~0.7 ms", timing.TxLatency)
	}
}

// TestFigure12aPolicySensitivity reproduces the 2of3 vs 3of3 asymmetry:
// with 2 engines, 2of3 short-circuits to one batch while 3of3 needs two,
// roughly doubling vscc latency (19,800 vs 10,400 tps in the paper).
func TestFigure12aPolicySensitivity(t *testing.T) {
	cfg := Config{TxValidators: 8, VSCCEngines: 2}
	t2of3 := Simulate(cfg, circuit("2of3"), UniformTxProfile(150, 3, 2, 2))
	t3of3 := Simulate(cfg, circuit("3of3"), UniformTxProfile(150, 3, 2, 2))
	r2 := t2of3.Throughput(150)
	r3 := t3of3.Throughput(150)
	ratio := r2 / r3
	if !within(ratio, 19800.0/10400.0, 0.15) {
		t.Errorf("2of3/3of3 = %.2f (%.0f vs %.0f tps), paper 1.90", ratio, r2, r3)
	}
}

// TestFigure12bArchitectureChoice: 8x2 wins for 2ofN, 5x3 wins for 3ofN.
func TestFigure12bArchitectureChoice(t *testing.T) {
	cfg8x2 := Config{TxValidators: 8, VSCCEngines: 2}
	cfg5x3 := Config{TxValidators: 5, VSCCEngines: 3}

	p2of3 := UniformTxProfile(150, 3, 2, 2)
	if a, b := Simulate(cfg8x2, circuit("2of3"), p2of3).Throughput(150),
		Simulate(cfg5x3, circuit("2of3"), p2of3).Throughput(150); a <= b {
		t.Errorf("2of3: 8x2 (%.0f) should beat 5x3 (%.0f)", a, b)
	}
	if a, b := Simulate(cfg8x2, circuit("3of3"), p2of3).Throughput(150),
		Simulate(cfg5x3, circuit("3of3"), p2of3).Throughput(150); b <= a {
		t.Errorf("3of3: 5x3 (%.0f) should beat 8x2 (%.0f)", b, a)
	}
	p3of4 := UniformTxProfile(150, 4, 2, 2)
	if a, b := Simulate(cfg8x2, circuit("3of4"), p3of4).Throughput(150),
		Simulate(cfg5x3, circuit("3of4"), p3of4).Throughput(150); b <= a {
		t.Errorf("3of4: 5x3 (%.0f) should beat 8x2 (%.0f)", b, a)
	}
}

// TestComplexPolicyMatches2of4 reproduces §4.3: the complex OR-of-AND
// policy evaluates in parallel combinational logic, so BMac throughput is
// nearly identical to plain 2of4.
func TestComplexPolicyMatches2of4(t *testing.T) {
	cfg := Config{TxValidators: 8, VSCCEngines: 2}
	complexPol := "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)"
	txs := UniformTxProfile(150, 4, 2, 2)
	a := Simulate(cfg, circuit("2of4"), txs).Throughput(150)
	b := Simulate(cfg, circuit(complexPol), txs).Throughput(150)
	if !within(b, a, 0.05) {
		t.Errorf("complex policy %.0f tps vs 2of4 %.0f tps; should match within 5%%", b, a)
	}
}

// TestFigure12cDBRequestsHidden: more database requests increase
// mvcc_commit busy time but block latency stays flat because it is hidden
// under the vscc stage.
func TestFigure12cDBRequestsHidden(t *testing.T) {
	cfg := Config{TxValidators: 8, VSCCEngines: 2}
	c := circuit("2of2")
	base := Simulate(cfg, c, UniformTxProfile(150, 2, 2, 2))
	heavy := Simulate(cfg, c, UniformTxProfile(150, 2, 9, 9))
	if heavy.MVCCBusy <= base.MVCCBusy {
		t.Error("mvcc busy time should grow with db requests")
	}
	if !within(heavy.Throughput(150), base.Throughput(150), 0.03) {
		t.Errorf("throughput moved: %.0f -> %.0f tps; should stay flat",
			base.Throughput(150), heavy.Throughput(150))
	}
}

// TestTable1Calibration checks the resource model against every row of
// Table 1 within 0.6 percentage points.
func TestTable1Calibration(t *testing.T) {
	rows := []struct {
		n, e    int
		lut, ff float64
	}{
		{4, 2, 20.9, 6.9},
		{5, 3, 25.4, 7.3},
		{8, 2, 28.5, 8.0},
		{12, 2, 35.8, 9.1},
		{16, 2, 43.3, 10.3},
	}
	for _, r := range rows {
		u := Resources(r.n, r.e)
		if math.Abs(u.LUTPct-r.lut) > 0.6 {
			t.Errorf("%dx%d LUT = %.1f%%, paper %.1f%%", r.n, r.e, u.LUTPct, r.lut)
		}
		if math.Abs(u.FFPct-r.ff) > 0.6 {
			t.Errorf("%dx%d FF = %.1f%%, paper %.1f%%", r.n, r.e, u.FFPct, r.ff)
		}
		if u.BRAMPct != 13.1 {
			t.Errorf("%dx%d BRAM = %.1f%%, paper 13.1%%", r.n, r.e, u.BRAMPct)
		}
		if !u.FitsU250() {
			t.Errorf("%dx%d reported as not fitting", r.n, r.e)
		}
	}
}

func TestEngineCount(t *testing.T) {
	if EngineCount(8, 2) != 25 {
		t.Errorf("8x2 engines = %d, want 25", EngineCount(8, 2))
	}
	if EngineCount(4, 2) != 13 {
		t.Errorf("4x2 engines = %d, want 13", EngineCount(4, 2))
	}
}

func TestLinkModelShape(t *testing.T) {
	l := NewLink(42)
	// Typical 150-tx block: ~600 KB gossip, ~150 KB BMac in 152 packets.
	var gossip, bmac []time.Duration
	for i := 0; i < 500; i++ {
		gossip = append(gossip, l.GossipTime(600_000))
		bmac = append(bmac, l.BMacTime(150_000, 152))
	}
	p95 := func(d []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), d...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		return sorted[int(float64(len(sorted))*0.95)]
	}
	g95, b95 := p95(gossip), p95(bmac)
	if b95 >= g95 {
		t.Errorf("BMac p95 (%v) should beat Gossip p95 (%v)", b95, g95)
	}
	reduction := 1 - float64(b95)/float64(g95)
	// Paper: 30% latency reduction at p95.
	if reduction < 0.15 || reduction > 0.60 {
		t.Errorf("p95 reduction = %.0f%%, paper ~30%%", reduction*100)
	}
}

func TestProtocolProcessorThroughput(t *testing.T) {
	// 2-endorsement tx packets are ~1.3 KB after identity removal; the
	// 11 Gbps datapath must sustain >= 996k tps (paper Figure 9a table).
	if got := ProtocolProcessorThroughput(1300); got < ProtocolProcessorTPS {
		t.Errorf("%.0f tps < %d", got, ProtocolProcessorTPS)
	}
	if ProtocolProcessorThroughput(0) != 0 {
		t.Error("zero-size packet should give 0")
	}
}

func TestSimulateEmptyBlock(t *testing.T) {
	timing := Simulate(Config{TxValidators: 4, VSCCEngines: 2}, circuit("2of2"), nil)
	if timing.Validate <= 0 {
		t.Error("empty block should still have fixed latency")
	}
	if timing.Throughput(0) != 0 {
		t.Error("zero tx throughput should be 0")
	}
}

func TestInvalidTxSkipsVSCC(t *testing.T) {
	txs := UniformTxProfile(10, 2, 2, 2)
	for i := range txs {
		txs[i].TxSigValid = false
	}
	timing := Simulate(Config{TxValidators: 2, VSCCEngines: 2}, circuit("2of2"), txs)
	if timing.EndsVerified != 0 {
		t.Errorf("ends verified = %d for invalid txs (early abort)", timing.EndsVerified)
	}
	if timing.EndsSkipped != 20 {
		t.Errorf("ends skipped = %d, want 20", timing.EndsSkipped)
	}
}
