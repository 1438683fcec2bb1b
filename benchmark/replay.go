package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// replayDef selects the validation path and the key distribution of one
// replay workload.
type replayDef struct {
	Kind  string  // validation path: seq, par or bmac
	ZipfS float64 // 0: uniform keys
}

var replayDefs = map[string]replayDef{
	"replay_seq":  {Kind: "seq"},
	"replay_par":  {Kind: "par"},
	"replay_hot":  {Kind: "par", ZipfS: 1.2},
	"replay_bmac": {Kind: "bmac"},
}

// replaySetup is everything a replay workload needs before its first timed
// hand-off: identities, the signed chain, its plan, and a warmed-up process.
type replaySetup struct {
	net   *network
	plan  *chainPlan
	chain []*blk
	want  []byte // state hash a correct peer ends with
}

func setupReplay(o runOpts, def replayDef) (*replaySetup, error) {
	net, err := newNetwork()
	if err != nil {
		return nil, err
	}
	// The key space stays below the 8192 entries of the in-hardware KVS: a
	// chain over more keys fills it and turns most transactions invalid.
	plan := planChain(chainSpec{
		Seed: o.seed, Blocks: o.size.ChainBlocks, TxsPerBlock: o.size.TxsPerBlock,
		Keys: o.size.Keys, ZipfS: def.ZipfS,
	})
	chain, err := net.buildChain(plan)
	if err != nil {
		return nil, err
	}
	s := &replaySetup{net: net, plan: plan, chain: chain, want: stateHash(plan.State)}
	// Warm-up on a throwaway peer: code paths, allocator and page cache.
	warm, err := replayPass(o, s, def.Kind, "warmup", chain[:min(o.size.WarmBlocks, len(chain))], false, nil)
	if err != nil {
		return nil, err
	}
	if warm.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d blocks failed", warm.Failed, warm.Attempted)
	}
	return s, nil
}

// passOut is one replay pass over a chain on a fresh peer.
type passOut struct {
	Attempted, Failed int
	Txs               int
	Wall              time.Duration
	BlockMS           []float64 // hand-off to commit result, per block
	Windows           []window  // groups of size.WindowBlocks consecutive blocks
	Start             time.Time // first hand-off
	CommitMS          []float64 // the synchronous commit call, per block
	Stages            stages
	Valid             int
	LastCommitHash    []byte
	Reads, Writes     int
	LedgerBytes       int64
	Wire              []bmacWire
	Trace             *trace
	Usage             usage
}

// replayPass hands chain block by block to a fresh peer of the given kind,
// keeping at most the peer's window of blocks outstanding, and checks every
// verdict against the plan. Errors are counted, and end the pass; only a
// peer that cannot be opened or closed is returned as an error. beforeClose
// runs on the still-open peer after the last block.
func replayPass(o runOpts, s *replaySetup, kind, name string, chain []*blk, traced bool, beforeClose func(*replayPeer) error) (*passOut, error) {
	dir := filepath.Join(o.workDir, name)
	p, err := s.net.newReplayPeer(kind, dir, traced)
	if err != nil {
		return nil, err
	}
	out := &passOut{}
	handoff := make([]time.Time, len(chain))
	submitted := make([]time.Time, len(chain))
	done := make([]time.Time, len(chain))
	results := make([]commitOut, len(chain))
	next := 0 // oldest block without a verdict
	collect := func() bool {
		r, err := p.result()
		done[next] = time.Now()
		if err != nil {
			fmt.Fprintf(o.log, "%s: block %d: %v\n", name, next, err)
			out.Failed++
			return false
		}
		results[next] = r
		if !flagsMatch(r.Flags, s.plan.Valid[next]) {
			fmt.Fprintf(o.log, "%s: block %d: flags differ from the plan\n", name, next)
			out.Failed++
		}
		next++
		return true
	}
	u0 := readUsage()
	aborted := false
	for i, b := range chain {
		out.Attempted++
		handoff[i] = time.Now()
		var err error
		if traced && kind == "bmac" {
			var w bmacWire
			w, err = p.sendSplit(b)
			out.Wire = append(out.Wire, w)
		} else {
			err = p.submit(b)
		}
		submitted[i] = time.Now()
		if err != nil {
			fmt.Fprintf(o.log, "%s: block %d: %v\n", name, i, err)
			out.Failed++
			aborted = true
			break
		}
		if i+1-next == p.window && !collect() {
			aborted = true
			break
		}
	}
	for !aborted && next < len(chain) {
		if !collect() {
			aborted = true
		}
	}
	out.Usage = readUsage().sub(u0)
	if next > 0 {
		out.Start, out.Wall = handoff[0], done[next-1].Sub(handoff[0])
	}
	for i := 0; i < next; i++ {
		out.Txs += len(results[i].Flags)
		out.Valid += countValid(results[i].Flags)
		out.Stages.add(results[i].Stages)
		out.BlockMS = append(out.BlockMS, ms(done[i].Sub(handoff[i])))
		out.CommitMS = append(out.CommitMS, ms(submitted[i].Sub(handoff[i])))
		out.LastCommitHash = results[i].CommitHash
	}
	windowBlocks := o.size.WindowBlocks
	for g := 0; g+windowBlocks <= next; g += windowBlocks {
		// From verdict to verdict, so that blocks in flight at the window's
		// edges (the BMac path keeps two) are counted once.
		from := handoff[0]
		if g > 0 {
			from = done[g-1]
		}
		w := window{From: from, To: done[g+windowBlocks-1], LatMS: out.BlockMS[g : g+windowBlocks]}
		for i := g; i < g+windowBlocks; i++ {
			w.Work += float64(len(results[i].Flags))
		}
		out.Windows = append(out.Windows, w)
	}
	// The end state is one more checked operation: it must be the planned one.
	if !aborted && len(chain) == len(s.chain) {
		out.Attempted++
		if !bytes.Equal(p.storeHash(), s.want) {
			fmt.Fprintf(o.log, "%s: final state differs from the plan\n", name)
			out.Failed++
		}
	}
	out.Reads, out.Writes = p.accesses()
	out.LedgerBytes = p.ledgerBytes()
	if traced {
		out.Trace = replayTrace(kind, handoff[:next], submitted[:next], done[:next], results[:next], out.Wire)
	}
	if beforeClose != nil && !aborted {
		if err := beforeClose(p); err != nil {
			p.close() // bmaclint:allow errdiscard (error path: the probe error is the one to report)
			return nil, err
		}
	}
	if err := p.close(); err != nil {
		return nil, err
	}
	return out, os.RemoveAll(dir)
}

// replayTrace lays one pass out as spans. A software peer's commit call is
// one span whose children are the stages of the Breakdown it returned, laid
// end to end from the call's start; what the call spent outside them stays
// its self time. The BMac path has no such call: its spans are the sender's
// encode, the link transmission and the wait for the hardware's result.
func replayTrace(kind string, handoff, submitted, done []time.Time, results []commitOut, wire []bmacWire) *trace {
	if len(handoff) == 0 {
		return newTrace(time.Now())
	}
	t := newTrace(handoff[0])
	for i := range handoff {
		root := t.add("replay.block", 0, handoff[i], done[i])
		if kind == "bmac" {
			enc := handoff[i].Add(wire[i].EncodeTime)
			t.add("bmacproto.encode", root, handoff[i], enc)
			t.add("bmacproto.transmit", root, enc, submitted[i])
			// With two blocks outstanding the wait for block i starts once
			// block i+1 has gone out and block i-1 has come back.
			from := submitted[min(i+1, len(submitted)-1)]
			if i > 0 && done[i-1].After(from) {
				from = done[i-1]
			}
			t.add("bmac.result_wait", root, from, done[i])
			continue
		}
		call := t.add("peer.commit", root, handoff[i], submitted[i])
		st := results[i].Stages
		t.addSeq(call, handoff[i],
			[]string{"validator.unmarshal", "validator.block_verify", "validator.vscc", "validator.mvcc", "validator.statedb_commit", "validator.ledger"},
			[]time.Duration{st.Unmarshal, st.BlockVerify, st.VSCC, st.MVCC, st.StateDB - st.MVCC, st.Ledger})
	}
	return t
}

// replayLeafTime is the time of a replay trace that named layers account
// for: every span's self time except the two spans the benchmark itself
// opens around the hand-off.
func replayLeafTime(t *trace) time.Duration {
	var sum time.Duration
	for name, d := range t.selfTimes() {
		if name != "replay.block" && name != "peer.commit" {
			sum += d
		}
	}
	return sum
}

// runReplay measures one replay workload for o.seconds: passes over the
// whole chain, each on a fresh peer with fresh caches, until the time is up.
func runReplay(o runOpts) (result, error) {
	def := replayDefs[o.workload]
	var s *replaySetup
	setupS, err := timedSetups(o, func() error {
		var err error
		s, err = setupReplay(o, def)
		return err
	})
	if err != nil {
		return result{}, err
	}

	var plain, traced []*passOut
	var probes probeResults
	probed := false
	deadline := time.Now().Add(o.share(1))
	for i := 0; i < o.size.MinPasses || time.Now().Before(deadline); i++ {
		// A traced run alternates plain and traced passes, so the two see
		// the same machine state and their ratio is the tracing overhead.
		withTrace := o.traced && i%2 == 1
		var hook func(*replayPeer) error
		if withTrace && !probed {
			probed = true
			hook = func(p *replayPeer) (err error) {
				probes, err = p.probe(s.net, o.seed, s.chain[0])
				return err
			}
		}
		out, err := replayPass(o, s, def.Kind, fmt.Sprintf("pass%d", i), s.chain, withTrace, hook)
		if err != nil {
			return result{}, err
		}
		rates, _ := o.host.atRef(out.Windows)
		fmt.Fprintf(o.log, "%s pass %d (traced %v): %d txs in %.3f s, %.0f tx/s, at reference speed %.0f tx/s\n", o.workload, i, withTrace, out.Txs, out.Wall.Seconds(), ratio(float64(out.Txs), out.Wall.Seconds()), median(rates))
		if withTrace {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}

	res := result{Correct: true}
	all := append(append([]*passOut(nil), plain...), traced...)
	for _, out := range all {
		res.Attempted += out.Attempted
		res.Failed += out.Failed
		// Every pass replays the same chain, so every pass must end on the
		// same commit hash.
		res.Attempted++
		if !bytes.Equal(out.LastCommitHash, all[0].LastCommitHash) {
			fmt.Fprintf(o.log, "%s: commit hash differs between passes\n", o.workload)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if !o.traced {
		rates, latMS := o.host.atRef(windowsOf(plain))
		res.Metrics = fill(endToEnd, map[string]value{
			"tps":     {Value: median(rates), N: len(rates)},
			"p50_ms":  {Value: quantile(latMS, 0.50), N: len(latMS)},
			"p95_ms":  {Value: quantile(latMS, 0.95), N: len(latMS)},
			"setup_s": {Value: setupS, N: setupRepeats},
		})
		return res, nil
	}
	m, err := replayLayers(o, def, s, plain, traced, probes)
	if err != nil {
		return result{}, err
	}
	res.Metrics = fill(perLayer, m)
	return res, nil
}

func windowsOf(passes []*passOut) []window {
	var ws []window
	for _, out := range passes {
		ws = append(ws, out.Windows...)
	}
	return ws
}

// replayLayers turns a traced run's passes into the per-layer metrics and
// writes the last traced pass's spans to the trace file.
func replayLayers(o runOpts, def replayDef, s *replaySetup, plain, traced []*passOut, pr probeResults) (map[string]value, error) {
	m := probeMetrics(pr)
	if len(traced) == 0 || len(plain) == 0 {
		return m, fmt.Errorf("%s: a traced run needs a plain and a traced pass, got %d and %d", o.workload, len(plain), len(traced))
	}
	var st stages
	var txs, blocks, valid, reads, writes int
	var ledgerBytes int64
	var commitMS, coverage []float64
	var wire []bmacWire
	for _, out := range traced {
		st.add(out.Stages)
		txs += out.Txs
		blocks += len(out.BlockMS)
		valid += out.Valid
		reads += out.Reads
		writes += out.Writes
		ledgerBytes += out.LedgerBytes
		commitMS = append(commitMS, out.CommitMS...)
		coverage = append(coverage, ratio(replayLeafTime(out.Trace).Seconds(), out.Wall.Seconds()))
		wire = append(wire, out.Wire...)
	}
	ftx, fblk := float64(txs), float64(blocks)
	set := func(name string, v float64, n int) { m[name] = value{Value: v, N: n} }
	if def.Kind != "bmac" {
		set("peer.commit_ms", median(commitMS), len(commitMS))
		set("validator.unmarshal_us_per_tx", us(st.Unmarshal)/ftx, txs)
		set("validator.block_verify_us", us(st.BlockVerify)/fblk, blocks)
		set("validator.vscc_us_per_tx", us(st.VSCC)/ftx, txs)
		set("validator.mvcc_us_per_tx", us(st.MVCC)/ftx, txs)
		set("validator.statedb_us_per_tx", us(st.StateDB)/ftx, txs)
		set("validator.ledger_us_per_block", us(st.Ledger)/fblk, blocks)
		set("validator.ecdsa_per_tx", float64(st.ECDSA)/ftx, txs)
		set("validator.parse_cache_hit_rate", float64(st.ParseCacheHits)/ftx, txs)
		set("fabcrypto.sig_cache_hit_rate", ratio(float64(st.SigCacheHits), float64(st.SigCacheHits+st.ECDSA)), st.SigCacheHits+st.ECDSA)
		set("pipeline.prefetch_wait_us", us(st.PrefetchWait)/fblk, blocks)
	} else {
		var enc, tx, packets, bytesOut, gossipBytes float64
		for _, w := range wire {
			enc += us(w.EncodeTime)
			tx += us(w.TransmitTime)
			packets += float64(w.Packets)
			bytesOut += float64(w.Bytes)
			gossipBytes += float64(w.GossipBytes)
		}
		set("bmacproto.encode_us_per_block", enc/fblk, blocks)
		set("bmacproto.transmit_us_per_block", tx/fblk, blocks)
		set("bmacproto.packets_per_block", packets/fblk, blocks)
		set("bmacproto.bytes_per_tx", bytesOut/ftx, txs)
		set("bmacproto.compression_x", ratio(gossipBytes, bytesOut), blocks)
		set("core.validate_us_per_block", us(st.HWValidate)/fblk, blocks)
		set("core.mvcc_commit_us_per_block", us(st.HWMVCCCommit)/fblk, blocks)
		set("core.ends_skipped_frac", ratio(float64(st.HWEndsSkips), float64(st.HWEndsSkips+st.HWEndsVerified)), st.HWEndsSkips+st.HWEndsVerified)
		tx0 := s.plan.Blocks[0][0]
		simTPS, simBlockUS, err := hwsimBlock(o.size.TxsPerBlock, len(s.net.endorsers), len(tx0.Reads), len(tx0.Writes))
		if err != nil {
			return nil, err
		}
		set("hwsim.sim_tps", simTPS, 1)
		set("hwsim.sim_block_us", simBlockUS, 1)
	}
	set("validator.valid_frac", float64(valid)/ftx, txs)
	edges, path := depStats(s.plan)
	set("pipeline.dep_edges_per_block", edges, len(s.plan.Blocks))
	set("pipeline.critical_path", path, len(s.plan.Blocks))
	set("statedb.reads_per_tx", float64(reads)/ftx, txs)
	set("statedb.writes_per_tx", float64(writes)/ftx, txs)
	set("ledger.bytes_per_tx", float64(ledgerBytes)/ftx, txs)
	var use usage
	useTxs := 0
	for _, out := range plain {
		use = use.add(out.Usage)
		useTxs += out.Txs
	}
	procMetrics(m, use, useTxs)
	plainRates, _ := o.host.atRef(windowsOf(plain))
	tracedRates, _ := o.host.atRef(windowsOf(traced))
	set("trace.overhead_frac", ratio(median(plainRates), median(tracedRates))-1, len(tracedRates))
	speed, _ := o.host.speed(plain[0].Start, time.Now())
	set("host.speed", speed, 1)
	set("trace.coverage_frac", median(coverage), len(coverage))
	return m, traced[len(traced)-1].Trace.write(o.tracePath())
}

// probeMetrics maps the direct-call probes onto their metric names.
func probeMetrics(pr probeResults) map[string]value {
	return map[string]value{
		"fabcrypto.sign_us":       {Value: pr.SignUS, N: probeCalls},
		"fabcrypto.verify_us":     {Value: pr.VerifyUS, N: probeCalls},
		"endorser.process_us":     {Value: pr.EndorserProcessUS, N: probeCalls},
		"ledger.get_us":           {Value: pr.LedgerGetUS, N: probeCalls},
		"statedb.write_batch_us":  {Value: pr.WriteBatchUS, N: probeCalls},
		"wire.block_marshal_us":   {Value: pr.BlockMarshalUS, N: probeCalls / 5},
		"wire.block_unmarshal_us": {Value: pr.BlockUnmarshalUS, N: probeCalls / 5},
	}
}
