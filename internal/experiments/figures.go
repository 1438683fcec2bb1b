package experiments

import (
	"fmt"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/hwsim"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/telemetry"
)

// Options tune experiment cost; the defaults keep a full run under a
// couple of minutes on a laptop while preserving the shapes.
type Options struct {
	// Rounds is the number of measured validations per data point.
	Rounds int
	// Quick shrinks sweeps (used by unit tests).
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	return o
}

func pct(part, whole time.Duration) string {
	if whole == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// Figure3 reproduces the bottleneck analysis: the operation-level profile
// (3a: ecdsa_verify dominates at ~40%, sha256 and unmarshal ~10% each) and
// the coarse stage breakdown (3b: verify_vscc critical) across block sizes
// and vCPU counts.
func Figure3(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	blockSizes := []int{50, 100, 200}
	vcpus := []int{4, 8, 16}
	if o.Quick {
		blockSizes = []int{50}
		vcpus = []int{4}
	}
	t := &Table{Header: []string{
		"block", "vCPUs", "ecdsa%", "sha256%", "unmarshal%", "statedb%",
		"| unmarshal", "verify_vscc", "mvcc+statedb", "total",
	}}
	for _, bs := range blockSizes {
		for _, w := range vcpus {
			bd, err := e.MeasureSW(BlockSpec{Txs: bs, Endorsements: 2, Reads: 2, Writes: 2},
				"2of2", w, o.Rounds)
			if err != nil {
				return nil, err
			}
			// CPU-seconds denominators: op times are summed across workers,
			// so compare against summed busy time, like pprof does.
			busy := bd.ECDSATime + bd.SHA256Time + bd.Unmarshal + bd.StateDB
			t.AddRow(
				fmt.Sprintf("%d", bs), fmt.Sprintf("%d", w),
				pct(bd.ECDSATime, busy), pct(bd.SHA256Time, busy),
				pct(bd.Unmarshal, busy), pct(bd.StateDB, busy),
				"| "+ms(bd.Unmarshal), ms(bd.VerifyVSCC), ms(bd.StateDB), ms(bd.Total),
			)
		}
	}
	return t, nil
}

// Figure9a reproduces the protocol bandwidth experiment: Gossip block size
// vs BMac protocol bytes across endorsement counts, the identity fraction,
// and the protocol processor's modeled rate.
func Figure9a(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	txs := 150
	if o.Quick {
		txs = 30
	}
	t := &Table{Header: []string{
		"ends", "gossip KB", "bmac KB", "ratio", "identity%", "saved%", "proc tps (11Gbps)",
	}}
	for _, ends := range []int{1, 2, 3, 4} {
		b, err := e.MakeBlock(BlockSpec{Txs: txs, Endorsements: ends, Reads: 2, Writes: 2})
		if err != nil {
			return nil, err
		}
		gossipBytes := len(block.Marshal(b))
		sender := bmacproto.NewSender(identity.NewCache(), nil)
		if err := sender.RegisterNetwork(e.Net); err != nil {
			return nil, err
		}
		_, stats, err := sender.EncodeBlock(b)
		if err != nil {
			return nil, err
		}
		idFrac := float64(stats.Removed) / float64(gossipBytes)
		txPacket := stats.Bytes / (txs + 2)
		t.AddRow(
			fmt.Sprintf("%d", ends),
			fmt.Sprintf("%.1f", float64(gossipBytes)/1024),
			fmt.Sprintf("%.1f", float64(stats.Bytes)/1024),
			fmt.Sprintf("%.2fx", float64(gossipBytes)/float64(stats.Bytes)),
			fmt.Sprintf("%.0f%%", idFrac*100),
			fmt.Sprintf("%.0f%%", 100*(1-float64(stats.Bytes)/float64(gossipBytes))),
			FormatTPS(hwsim.ProtocolProcessorThroughput(txPacket)),
		)
	}
	return t, nil
}

// Figure9b reproduces the end-to-end block transmission time CDF over the
// modeled 1 Gbps link: p50/p95 for Gossip vs the BMac protocol.
func Figure9b(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	blocks := 500
	if o.Quick {
		blocks = 50
	}
	b, err := e.MakeBlock(BlockSpec{Txs: 150, Endorsements: 2, Reads: 2, Writes: 2})
	if err != nil {
		return nil, err
	}
	gossipBytes := len(block.Marshal(b))
	sender := bmacproto.NewSender(identity.NewCache(), nil)
	if err := sender.RegisterNetwork(e.Net); err != nil {
		return nil, err
	}
	_, stats, err := sender.EncodeBlock(b)
	if err != nil {
		return nil, err
	}

	link := hwsim.NewLink(20220106)
	gd, bd := make([]time.Duration, blocks), make([]time.Duration, blocks)
	for i := range blocks {
		gd[i] = link.GossipTime(gossipBytes)
		bd[i] = link.BMacTime(stats.Bytes, stats.Packets)
	}
	gs, bs := telemetry.Summarize(gd), telemetry.Summarize(bd)
	t := &Table{Header: []string{"protocol", "p50", "p95", "p99", "mean"}}
	t.AddRow("gossip", ms(gs.P50), ms(gs.P95), ms(gs.P99), ms(gs.Mean))
	t.AddRow("bmac", ms(bs.P50), ms(bs.P95), ms(bs.P99), ms(bs.Mean))
	t.AddRow("reduction",
		pctf(1-float64(bs.P50)/float64(gs.P50)),
		pctf(1-float64(bs.P95)/float64(gs.P95)),
		pctf(1-float64(bs.P99)/float64(gs.P99)),
		pctf(1-float64(bs.Mean)/float64(gs.Mean)))
	return t, nil
}

func pctf(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// bmacTiming runs the timing simulator for a uniform workload. A malformed
// policy string is reported as an error, never a panic (a bad experiment
// parameter must not crash the process).
func bmacTiming(arch hwsim.Config, pol string, spec BlockSpec) (hwsim.BlockTiming, error) {
	p, err := policy.Parse(pol)
	if err != nil {
		return hwsim.BlockTiming{}, fmt.Errorf("experiments: policy %q: %w", pol, err)
	}
	circuit := policy.Compile(p)
	txs := hwsim.UniformTxProfile(spec.Txs, spec.Endorsements, spec.Reads, spec.Writes)
	return hwsim.Simulate(arch, circuit, txs), nil
}

// Figure10 reproduces the validation-latency breakdown of sw_validator vs
// BMac peer (block 200, 8 vCPUs/tx_validators): the protocol processor
// replaces unmarshal (paper: ~40x better, < 0.2 ms), the block processor
// replaces verify_vscc + statedb (paper: ~3.7x), overall ~4.4x.
func Figure10(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	spec := BlockSpec{Txs: 200, Endorsements: 2, Reads: 2, Writes: 2}
	if o.Quick {
		spec.Txs = 50
	}
	sw, err := e.MeasureSW(spec, "2of2", 8, o.Rounds)
	if err != nil {
		return nil, err
	}
	hw, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, "2of2", spec)
	if err != nil {
		return nil, err
	}

	// Protocol processor time for the block: bytes / 11 Gbps.
	sender := bmacproto.NewSender(identity.NewCache(), nil)
	if err := sender.RegisterNetwork(e.Net); err != nil {
		return nil, err
	}
	b, err := e.MakeBlock(spec)
	if err != nil {
		return nil, err
	}
	_, stats, err := sender.EncodeBlock(b)
	if err != nil {
		return nil, err
	}
	protoTime := time.Duration(float64(stats.Bytes) * 8 / (hwsim.ProtocolProcessorGbps * 1e9) * float64(time.Second))

	swValidate := sw.VerifyVSCC + sw.StateDB
	hwValidate := hw.BlockLatency()
	t := &Table{Header: []string{"stage", "sw_validator", "bmac", "speedup"}}
	t.AddRow("parse/retrieve block", ms(sw.Unmarshal), ms(protoTime),
		fmt.Sprintf("%.0fx", float64(sw.Unmarshal)/float64(protoTime)))
	t.AddRow("block validation", ms(swValidate), ms(hwValidate),
		fmt.Sprintf("%.1fx", float64(swValidate)/float64(hwValidate)))
	t.AddRow("overall", ms(sw.Unmarshal+swValidate), ms(protoTime+hwValidate),
		fmt.Sprintf("%.1fx", float64(sw.Unmarshal+swValidate)/float64(protoTime+hwValidate)))
	return t, nil
}

// Figure11 reproduces the smallbank throughput sweep: block sizes x
// vCPUs (sw) / tx_validators (BMac), plus the simulator projections beyond
// 16 validators.
func Figure11(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	blockSizes := []int{50, 100, 150, 200, 250}
	parallel := []int{4, 8, 16}
	if o.Quick {
		blockSizes = []int{50, 100}
		parallel = []int{4}
	}
	t := &Table{Header: []string{"block", "par", "sw tps", "bmac tps", "speedup"}}
	for _, bs := range blockSizes {
		spec := BlockSpec{Txs: bs, Endorsements: 2, Reads: 2, Writes: 2}
		for _, p := range parallel {
			sw, err := e.MeasureSW(spec, "2of2", p, o.Rounds)
			if err != nil {
				return nil, err
			}
			swTPS := Throughput(bs, sw.Total)
			hw, err := bmacTiming(hwsim.Config{TxValidators: p, VSCCEngines: 2}, "2of2", spec)
			if err != nil {
				return nil, err
			}
			hwTPS := hw.Throughput(bs)
			t.AddRow(fmt.Sprintf("%d", bs), fmt.Sprintf("%d", p),
				FormatTPS(swTPS), FormatTPS(hwTPS),
				fmt.Sprintf("%.1fx", hwTPS/swTPS))
		}
	}
	if !o.Quick {
		// Simulator-only projections (§4.3).
		for _, row := range []struct{ bs, par int }{{250, 50}, {500, 80}} {
			spec := BlockSpec{Txs: row.bs, Endorsements: 2, Reads: 2, Writes: 2}
			hw, err := bmacTiming(hwsim.Config{TxValidators: row.par, VSCCEngines: 2}, "2of2", spec)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", row.bs), fmt.Sprintf("%d(sim)", row.par),
				"-", FormatTPS(hw.Throughput(row.bs)), "-")
		}
	}
	return t, nil
}

// policyCases are the Figure 12a endorsement policies.
var policyCases = []struct {
	Name string
	Pol  string
	Ends int
}{
	{"1of1", "1of1", 1},
	{"2of2", "2of2", 2},
	{"2of3", "2of3", 3},
	{"3of3", "3of3", 3},
	{"2of4", "2of4", 4},
	{"3of4", "3of4", 4},
	{"4of4", "4of4", 4},
	{"complex", "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)", 4},
}

// Figure12a reproduces the endorsement-policy sweep (8 vCPUs /
// tx_validators, block 150): software degrades with endorsement count and
// cannot exploit k-of-n short-circuits; BMac can.
func Figure12a(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	cases := policyCases
	if o.Quick {
		cases = policyCases[:2]
	}
	blockSize := 150
	if o.Quick {
		blockSize = 30
	}
	t := &Table{Header: []string{"policy", "sw tps", "bmac tps", "bmac ends verified/tx"}}
	for _, pc := range cases {
		spec := BlockSpec{Txs: blockSize, Endorsements: pc.Ends, Reads: 2, Writes: 2}
		sw, err := e.MeasureSW(spec, pc.Pol, 8, o.Rounds)
		if err != nil {
			return nil, err
		}
		hw, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, pc.Pol, spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(pc.Name,
			FormatTPS(Throughput(blockSize, sw.Total)),
			FormatTPS(hw.Throughput(blockSize)),
			fmt.Sprintf("%.1f", float64(hw.EndsVerified)/float64(blockSize)))
	}
	return t, nil
}

// Figure12b reproduces the architecture comparison: 8x2 vs 5x3 across the
// same policies (simulator only, as the knob is hardware configuration).
func Figure12b(opts Options) (*Table, error) {
	o := opts.withDefaults()
	cases := policyCases
	if o.Quick {
		cases = policyCases[2:4]
	}
	t := &Table{Header: []string{"policy", "8x2 tps", "5x3 tps", "winner"}}
	for _, pc := range cases {
		spec := BlockSpec{Txs: 150, Endorsements: pc.Ends, Reads: 2, Writes: 2}
		ta, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, pc.Pol, spec)
		if err != nil {
			return nil, err
		}
		tb, err := bmacTiming(hwsim.Config{TxValidators: 5, VSCCEngines: 3}, pc.Pol, spec)
		if err != nil {
			return nil, err
		}
		a, b := ta.Throughput(150), tb.Throughput(150)
		winner := "8x2"
		if b > a {
			winner = "5x3"
		}
		t.AddRow(pc.Name, FormatTPS(a), FormatTPS(b), winner)
	}
	return t, nil
}

// Figure12c reproduces the database-requests experiment: the split-payment
// workload with rw in {1+1..1+8}; BMac throughput stays flat (mvcc hidden
// under vscc) while software degrades.
func Figure12c(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	rws := []int{2, 3, 5, 9} // 1+n for n in {1,2,4,8}
	if o.Quick {
		rws = []int{2, 5}
	}
	blockSize := 150
	if o.Quick {
		blockSize = 30
	}
	t := &Table{Header: []string{"rw/tx", "sw tps", "bmac tps", "bmac mvcc busy"}}
	for _, rw := range rws {
		spec := BlockSpec{Txs: blockSize, Endorsements: 2, Reads: rw, Writes: rw}
		sw, err := e.MeasureSW(spec, "2of2", 8, o.Rounds)
		if err != nil {
			return nil, err
		}
		hw, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, "2of2", spec)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", rw),
			FormatTPS(Throughput(blockSize, sw.Total)),
			FormatTPS(hw.Throughput(blockSize)),
			ms(hw.MVCCBusy))
	}
	return t, nil
}

// Figure13 reproduces the drm benchmark subset: drm touches the database
// less (1 read + 1 write), so software does slightly better than smallbank
// while BMac stays vscc-bound at the same throughput.
func Figure13(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	blockSizes := []int{100, 150, 250}
	if o.Quick {
		blockSizes = []int{50}
	}
	t := &Table{Header: []string{"block", "workload", "sw tps", "bmac tps"}}
	for _, bs := range blockSizes {
		// smallbank: 2r2w; drm: 1r1w.
		for _, wl := range []struct {
			name   string
			reads  int
			writes int
		}{{"smallbank", 2, 2}, {"drm", 1, 1}} {
			spec := BlockSpec{Txs: bs, Endorsements: 2, Reads: wl.reads, Writes: wl.writes}
			sw, err := e.MeasureSW(spec, "2of2", 8, o.Rounds)
			if err != nil {
				return nil, err
			}
			hw, err := bmacTiming(hwsim.Config{TxValidators: 8, VSCCEngines: 2}, "2of2", spec)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", bs), wl.name,
				FormatTPS(Throughput(bs, sw.Total)),
				FormatTPS(hw.Throughput(bs)))
		}
	}
	return t, nil
}

// Table1 reproduces the FPGA utilization table from the resource model.
func Table1() *Table {
	t := &Table{Header: []string{"resource", "4x2", "5x3", "8x2", "12x2", "16x2"}}
	archs := [][2]int{{4, 2}, {5, 3}, {8, 2}, {12, 2}, {16, 2}}
	var lut, ff, bram []string
	for _, a := range archs {
		u := hwsim.Resources(a[0], a[1])
		lut = append(lut, fmt.Sprintf("%.1f%%", u.LUTPct))
		ff = append(ff, fmt.Sprintf("%.1f%%", u.FFPct))
		bram = append(bram, fmt.Sprintf("%.1f%%", u.BRAMPct))
	}
	t.AddRow(append([]string{"LUT/LUTRAM"}, lut...)...)
	t.AddRow(append([]string{"FF"}, ff...)...)
	t.AddRow(append([]string{"BRAM/URAM"}, bram...)...)
	return t
}

// Headline reproduces the §4.3 headline numbers: peak throughput, the ~12x
// speedup over a 16-vCPU software validator, and the ~0.7 ms transaction
// latency.
func Headline(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	spec := BlockSpec{Txs: 250, Endorsements: 2, Reads: 2, Writes: 2}
	if o.Quick {
		spec.Txs = 50
	}
	sw, err := e.MeasureSW(spec, "2of2", 16, o.Rounds)
	if err != nil {
		return nil, err
	}
	swTPS := Throughput(spec.Txs, sw.Total)

	// Peak hardware configuration fitting the U250 with E=2.
	best := hwsim.Config{TxValidators: 16, VSCCEngines: 2}
	for n := 16; n <= 64; n++ {
		if hwsim.Resources(n, 2).FitsU250() {
			best.TxValidators = n
		}
	}
	hw, err := bmacTiming(best, "2of2", spec)
	if err != nil {
		return nil, err
	}
	t := &Table{Header: []string{"metric", "value", "paper"}}
	t.AddRow("sw_validator (16 vCPU)", FormatTPS(swTPS)+" tps", "5,600 tps")
	t.AddRow(fmt.Sprintf("bmac peak (%s)", best.String()),
		FormatTPS(hw.Throughput(spec.Txs))+" tps", "68,900 tps")
	t.AddRow("speedup", fmt.Sprintf("%.1fx", hw.Throughput(spec.Txs)/swTPS), "~12x")
	t.AddRow("tx validation latency", hw.TxLatency.Round(10*time.Microsecond).String(), "~0.7ms")
	t.AddRow("block latency", hw.BlockLatency().Round(10*time.Microsecond).String(), "3.63ms")
	return t, nil
}
