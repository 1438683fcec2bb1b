package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// txRec is one submitted transaction as its client saw it. OrdStart and
// OrdEnd are the window of the orderer's Submit call, which the tap records
// anyway; Start and End, the window of SubmitTx, only a traced phase fills.
type txRec struct {
	ID               string
	Due              time.Time // closed loop: when the client was ready; open loop: the scheduled arrival
	OrdStart, OrdEnd time.Time
	Start, End       time.Time
}

// blockRec is one block as the observer committed it.
type blockRec struct {
	IDs []string
	Obs observation
}

// e2eRun drives one e2e stack: it owns the in-flight accounting, the
// failure counters and what the hooks recorded.
type e2eRun struct {
	o     runOpts
	stack *e2eStack
	dir   string // the stack's ledgers

	attempted, failed atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond              // signals inflight dropping, and stop
	inflight int                     // guarded by mu; submitted and not yet seen committed
	stop     bool                    // guarded by mu; releases clients waiting for a slot
	blocks   []blockRec              // guarded by mu
	deliver  map[uint64]deliverTimes // guarded by mu
}

const (
	warmupDeadline = 20 * time.Second
	drainDeadline  = 5 * time.Second
	settleDeadline = 10 * time.Second
)

func setupE2E(o runOpts) (*e2eRun, error) {
	net, err := newNetwork()
	if err != nil {
		return nil, err
	}
	// Every set-up gets ledgers of its own: a second orderer must not find
	// the first one's chain.
	dir, err := os.MkdirTemp(o.workDir, "stack-")
	if err != nil {
		return nil, err
	}
	stack, err := net.newE2EStack(dir, o.seed, o.size.Clients, o.size.Accounts)
	if err != nil {
		return nil, err
	}
	r := &e2eRun{o: o, stack: stack, dir: dir, deliver: make(map[uint64]deliverTimes)}
	r.cond = sync.NewCond(&r.mu)
	stack.onDeliver = func(t deliverTimes) {
		r.mu.Lock()
		r.deliver[t.Num] = t
		r.mu.Unlock()
	}
	stack.onCommit = func(b *blk, obs observation) {
		ids := blockTxIDs(b)
		r.mu.Lock()
		r.blocks = append(r.blocks, blockRec{IDs: ids, Obs: obs})
		r.inflight -= len(ids)
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	// Warm-up: the whole path once, so that connections, caches and the
	// allocator are in their steady state before the first timed phase.
	warm := r.phase(phaseSpec{Name: "warmup", Txs: o.size.WarmTxs, Dur: warmupDeadline, MaxInflight: o.size.Inflight})
	if warm.Missing > 0 || warm.SubmitErrs > 0 {
		r.close() // bmaclint:allow errdiscard (error path: the warm-up failure is the one to report)
		return nil, fmt.Errorf("warm-up: %d submit errors, %d of %d txs not committed", warm.SubmitErrs, warm.Missing, len(warm.Recs))
	}
	return r, nil
}

func (r *e2eRun) close() error {
	return errors.Join(r.stack.close(), os.RemoveAll(r.dir))
}

// phaseSpec describes one load phase. Rate > 0 makes it an open loop with
// Poisson arrivals at that many tx/s over all clients, timed from each
// scheduled arrival; otherwise it is a closed loop in which a client submits
// its next transaction as soon as fewer than MaxInflight are uncommitted.
// The phase ends after Dur, or after Txs transactions when Txs > 0.
type phaseSpec struct {
	Name        string
	Dur         time.Duration
	Txs         int
	Rate        float64
	MaxInflight int
	Traced      bool
}

// phaseOut is what one phase produced, joined with what the observer saw.
type phaseOut struct {
	Spec                        phaseSpec
	Window                      time.Duration // size.E2EWindow
	Start, End                  time.Time     // End: when the clients stopped submitting
	Recs                        []txRec
	Blocks                      []blockRec // blocks the observer committed since Start
	Deliver                     map[uint64]deliverTimes
	SubmitErrs                  int
	Missing                     int       // submitted, not committed by the drain deadline
	LatencyMS                   []float64 // due time to commit at the observer, per committed tx
	commitOf                    map[string]int
	Usage                       usage
	ReadsWrites                 [2]int
	LedgerBytes, DeliveredBytes int64
}

// phase runs one load phase on the stack, drains it, and joins every
// submitted transaction with the block it committed in. A submit error or a
// transaction that never commits is counted as a failed operation.
func (r *e2eRun) phase(spec phaseSpec) *phaseOut {
	out := &phaseOut{Spec: spec, Window: r.o.size.E2EWindow}
	r.mu.Lock()
	firstBlock := len(r.blocks)
	r.stop = false
	r.mu.Unlock()
	r.stack.setCounting(spec.Traced)
	reads0, writes0 := r.stack.observerAccesses()
	led0, del0 := r.stack.ordererLedgerBytes(), r.stack.observerDelivery()
	failed0 := r.failed.Load()
	u0 := readUsage()

	out.Start = time.Now()
	var deadline time.Time
	if spec.Dur > 0 {
		deadline = out.Start.Add(spec.Dur)
	}
	var quota atomic.Int64
	quota.Store(int64(spec.Txs))
	more := func() bool {
		if spec.Txs > 0 && quota.Add(-1) < 0 {
			return false
		}
		return deadline.IsZero() || time.Now().Before(deadline)
	}
	recs := make([][]txRec, len(r.stack.drivers))
	var wg sync.WaitGroup
	for c, d := range r.stack.drivers {
		wg.Add(1)
		go func(c int, d *e2eDriver) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.o.seed*7919 + int64(c)))
			next := out.Start
			for more() {
				var due time.Time
				if spec.Rate > 0 {
					next = next.Add(time.Duration(rng.ExpFloat64() / (spec.Rate / float64(len(r.stack.drivers))) * float64(time.Second)))
					if !deadline.IsZero() && next.After(deadline) {
						return
					}
					time.Sleep(time.Until(next))
					due = next
				} else {
					if !r.waitSlot(spec.MaxInflight) {
						return
					}
					due = time.Now()
				}
				if rec, ok := r.submit(d, due, spec.Traced); ok {
					recs[c] = append(recs[c], rec)
				}
			}
		}(c, d)
	}
	if !deadline.IsZero() {
		// Clients blocked on a full window must not outlive the phase.
		timer := time.AfterFunc(time.Until(deadline), r.release)
		defer timer.Stop()
	}
	wg.Wait()
	out.End = time.Now()
	out.Usage = readUsage().sub(u0)

	// Drain: everything submitted must commit, within a deadline.
	r.mu.Lock()
	limit := time.Now().Add(drainDeadline)
	for r.inflight > 0 && time.Now().Before(limit) {
		r.mu.Unlock()
		time.Sleep(time.Millisecond)
		r.mu.Lock()
	}
	out.Blocks = append([]blockRec(nil), r.blocks[firstBlock:]...)
	out.Deliver = make(map[uint64]deliverTimes, len(out.Blocks))
	for _, b := range out.Blocks {
		out.Deliver[b.Obs.Out.Num] = r.deliver[b.Obs.Out.Num]
	}
	r.inflight = 0 // a transaction lost for good must not shrink the next phase's window
	r.mu.Unlock()

	reads1, writes1 := r.stack.observerAccesses()
	out.ReadsWrites = [2]int{reads1 - reads0, writes1 - writes0}
	out.LedgerBytes = r.stack.ordererLedgerBytes() - led0
	out.DeliveredBytes = r.stack.observerDelivery() - del0
	out.SubmitErrs = int(r.failed.Load() - failed0)

	out.commitOf = make(map[string]int)
	for i, b := range out.Blocks {
		for _, id := range b.IDs {
			out.commitOf[id] = i
		}
	}
	for _, cr := range recs {
		out.Recs = append(out.Recs, cr...)
	}
	for _, rec := range out.Recs {
		i, ok := out.commitOf[rec.ID]
		if !ok {
			out.Missing++
			continue
		}
		out.LatencyMS = append(out.LatencyMS, ms(out.Blocks[i].Obs.Committed.Sub(rec.Due)))
	}
	r.failed.Add(int64(out.Missing))
	if out.Missing > 0 {
		fmt.Fprintf(r.o.log, "%s: %d of %d txs not committed %v after the phase\n", spec.Name, out.Missing, len(out.Recs), drainDeadline)
	}
	return out
}

// waitSlot blocks until fewer than limit transactions are uncommitted; false
// means the phase was released first.
func (r *e2eRun) waitSlot(limit int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.inflight >= limit && !r.stop {
		r.cond.Wait()
	}
	return !r.stop
}

func (r *e2eRun) release() {
	r.mu.Lock()
	r.stop = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// submit sends one transaction. An error is one failed operation; the
// client carries on.
func (r *e2eRun) submit(d *e2eDriver, due time.Time, traced bool) (txRec, bool) {
	rec := txRec{Due: due}
	if traced {
		rec.Start = time.Now()
	}
	r.attempted.Add(1)
	id, ordStart, ordEnd, err := d.submitTx()
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(r.o.log, "submit: %v\n", err)
		}
		return rec, false
	}
	rec.ID, rec.OrdStart, rec.OrdEnd = id, ordStart, ordEnd
	if traced {
		rec.End = time.Now()
	}
	r.mu.Lock()
	r.inflight++
	r.mu.Unlock()
	return rec, true
}

// commitWindows cuts a closed-loop phase into windows that run from one
// block's commit to a later block's, each at least size.E2EWindow long, over the
// blocks committed while the clients were still submitting. Counting from
// commit to commit keeps the block size out of a window's rate.
func (p *phaseOut) commitWindows() []window {
	var ws []window
	var w window
	for _, b := range p.Blocks {
		at := b.Obs.Committed
		if at.After(p.End) {
			break
		}
		if w.From.IsZero() {
			w.From = at
			continue
		}
		w.Work += float64(len(b.IDs))
		if at.Sub(w.From) >= p.Window {
			w.To = at
			ws = append(ws, w)
			w = window{From: at}
		}
	}
	return ws
}

// arrivalWindows cuts an open-loop phase into windows of size.E2EWindow by
// scheduled arrival. A window holds the latency of every transaction due in
// it that committed, and how much of that latency was the wait for the
// orderer's batch timer: from the orderer accepting the transaction to the
// block being cut. That wait is set by a clock, not by the host's speed.
func (p *phaseOut) arrivalWindows() []window {
	ws := make([]window, int(p.Spec.Dur/p.Window))
	for i := range ws {
		ws[i].From = p.Start.Add(time.Duration(i) * p.Window)
		ws[i].To = ws[i].From.Add(p.Window)
	}
	for _, rec := range p.Recs {
		bi, ok := p.commitOf[rec.ID]
		i := int(rec.Due.Sub(p.Start) / p.Window)
		if !ok || i < 0 || i >= len(ws) {
			continue
		}
		b := p.Blocks[bi]
		ws[i].Work++
		ws[i].LatMS = append(ws[i].LatMS, ms(b.Obs.Committed.Sub(rec.Due)))
		ws[i].WaitMS = append(ws[i].WaitMS, max(0, ms(p.Deliver[b.Obs.Out.Num].Entry.Sub(rec.OrdEnd))))
	}
	return ws
}

func runE2E(o runOpts) (result, error) {
	var r *e2eRun
	setupS, err := timedSetups(o, func() error {
		if r != nil {
			if err := r.close(); err != nil {
				return err
			}
			r = nil
		}
		var err error
		r, err = setupE2E(o)
		return err
	})
	if err != nil {
		if r != nil {
			r.close() // bmaclint:allow errdiscard (error path: the set-up error is the one to report)
		}
		return result{}, err
	}
	defer func() {
		if r != nil {
			r.close() // bmaclint:allow errdiscard (already closed and checked on the success path)
		}
	}()

	var m map[string]value
	if !o.traced {
		sat := r.phase(phaseSpec{Name: "saturate", Dur: o.share(0.45), MaxInflight: o.size.Inflight})
		paced := r.phase(phaseSpec{Name: "paced", Dur: o.share(0.45), Rate: o.size.Rate})
		rates, _ := o.host.atRef(sat.commitWindows())
		_, latMS := o.host.atRef(paced.arrivalWindows())
		m = fill(endToEnd, map[string]value{
			"tps":     {Value: median(rates), N: len(rates)},
			"p50_ms":  {Value: quantile(latMS, 0.50), N: len(latMS)},
			"p95_ms":  {Value: quantile(latMS, 0.95), N: len(latMS)},
			"setup_s": {Value: setupS, N: setupRepeats},
		})
	} else {
		// The traced phase sits between two plain halves, so that a drift of
		// the host over the run weighs on both sides of the overhead ratio.
		sat := r.phase(phaseSpec{Name: "saturate", Dur: o.share(0.3), MaxInflight: o.size.Inflight})
		before := r.phase(phaseSpec{Name: "paced", Dur: o.share(0.15), Rate: o.size.Rate})
		traced := r.phase(phaseSpec{Name: "paced-traced", Dur: o.share(0.3), Rate: o.size.Rate, Traced: true})
		after := r.phase(phaseSpec{Name: "paced", Dur: o.share(0.15), Rate: o.size.Rate})
		pr, err := r.stack.probe(o.seed)
		if err != nil {
			return result{}, err
		}
		layers := probeMetrics(pr)
		procMetrics(layers, sat.Usage, len(sat.LatencyMS))
		t := e2eLayers(layers, traced)
		p50 := func(p *phaseOut) float64 {
			_, latMS := o.host.atRef(p.arrivalWindows())
			return median(latMS)
		}
		layers["trace.overhead_frac"] = value{Value: ratio(2*p50(traced), p50(before)+p50(after)) - 1, N: len(traced.LatencyMS)}
		speed, _ := o.host.speed(sat.Start, traced.End)
		layers["host.speed"] = value{Value: speed, N: 1}
		if err := t.write(o.tracePath()); err != nil {
			return result{}, err
		}
		m = fill(perLayer, layers)
	}

	// Gates: both peers at the orderer's height with equal state and commit
	// hash, no component error. A breach is one more failed operation.
	v := r.stack.settle(settleDeadline)
	r.attempted.Add(1)
	if !v.Converged || v.Err != nil {
		r.failed.Add(1)
		fmt.Fprintf(o.log, "e2e: not converged: orderer height %d, peers %v, err %v\n", v.OrdererHeight, v.PeerHeights, v.Err)
	}
	attempted, failed := int(r.attempted.Load()), int(r.failed.Load())
	err = r.close()
	r = nil
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// e2eLayers turns a traced paced phase into the per-layer metrics of the
// path, and into spans. A transaction's root span runs from its scheduled
// arrival to its commit at the observer and is tiled by its children: the
// wait for a free client, the SubmitTx call (with the orderer's Submit
// inside it), the wait for the batch to be cut, and the ride in its block.
// The block's own root span, caused by the last transaction that entered it,
// splits that ride into the orderer's ledger append, the publish, the
// delivery over the wire and the observer's commit with its stages.
func e2eLayers(m map[string]value, p *phaseOut) *trace {
	t := newTrace(p.Start)
	var queueWait, submit, ordSubmit, endorseSelf []float64
	lastTx := make([]int, len(p.Blocks))        // root span of the last tx to enter each block
	lastOrd := make([]time.Time, len(p.Blocks)) // when that tx reached the orderer
	for _, rec := range p.Recs {
		bi, ok := p.commitOf[rec.ID]
		if !ok {
			continue
		}
		b := p.Blocks[bi]
		entry := p.Deliver[b.Obs.Out.Num].Entry
		queueWait = append(queueWait, us(rec.Start.Sub(rec.Due)))
		submit = append(submit, us(rec.End.Sub(rec.Start)))
		ordSubmit = append(ordSubmit, us(rec.OrdEnd.Sub(rec.OrdStart)))
		endorseSelf = append(endorseSelf, us(rec.End.Sub(rec.Start)-rec.OrdEnd.Sub(rec.OrdStart)))

		root := t.add("tx", 0, rec.Due, b.Obs.Committed)
		t.add("client.queue_wait", root, rec.Due, rec.Start)
		call := t.add("client.submit", root, rec.Start, rec.End)
		t.add("orderer.submit", call, rec.OrdStart, rec.OrdEnd)
		ride := rec.End
		if entry.After(rec.End) {
			// A size cut happens inside Submit, so the block can exist
			// before SubmitTx returns; then there is no batch wait.
			t.add("orderer.batch_wait", root, rec.End, entry)
			ride = entry
		}
		t.add("block.ride", root, ride, b.Obs.Committed)
		if rec.OrdStart.After(lastOrd[bi]) {
			lastOrd[bi], lastTx[bi] = rec.OrdStart, root
		}
	}

	var ordWait, appendUS, publishUS, deliverMS, commitMS, applyWait []float64
	var st stages
	var maxLag uint64
	txs, valid := 0, 0
	for bi, b := range p.Blocks {
		d := p.Deliver[b.Obs.Out.Num]
		if lastTx[bi] == 0 || d.Entry.IsZero() {
			continue // a block of the previous phase's stragglers
		}
		txs += len(b.IDs)
		valid += countValid(b.Obs.Out.Flags)
		st.add(b.Obs.Out.Stages)
		maxLag = max(maxLag, d.MaxLag)
		ordWait = append(ordWait, ms(d.Entry.Sub(lastOrd[bi])))
		appendUS = append(appendUS, us(d.Appended.Sub(d.Entry)))
		publishUS = append(publishUS, us(d.Published.Sub(d.Appended)))
		deliverMS = append(deliverMS, ms(b.Obs.Received.Sub(d.Published)))
		commitMS = append(commitMS, ms(b.Obs.Committed.Sub(b.Obs.Received)))
		applyWait = append(applyWait, us(b.Obs.ApplyWait))

		root := t.add("block", lastTx[bi], lastOrd[bi], b.Obs.Committed)
		t.add("orderer.wait", root, lastOrd[bi], d.Entry)
		t.add("ledger.append", root, d.Entry, d.Appended)
		t.add("delivery.publish", root, d.Appended, d.Published)
		t.add("delivery.deliver", root, d.Published, b.Obs.Received)
		call := t.add("peer.commit", root, b.Obs.Received, b.Obs.Committed)
		s := b.Obs.Out.Stages
		t.addSeq(call, b.Obs.Received,
			[]string{"validator.unmarshal", "validator.block_verify", "validator.vscc", "validator.mvcc", "validator.statedb_commit", "validator.ledger"},
			[]time.Duration{s.Unmarshal, s.BlockVerify, s.VSCC, s.MVCC, s.StateDB - s.MVCC, s.Ledger})
	}

	ftx, fblk := float64(txs), float64(len(ordWait))
	set := func(name string, v float64, n int) { m[name] = value{Value: v, N: n} }
	set("client.queue_wait_us", median(queueWait), len(queueWait))
	set("client.submit_us", median(submit), len(submit))
	set("client.endorse_self_us", median(endorseSelf), len(endorseSelf))
	set("orderer.submit_us", median(ordSubmit), len(ordSubmit))
	set("orderer.wait_ms", median(ordWait), len(ordWait))
	set("orderer.txs_per_block", ratio(ftx, fblk), len(ordWait))
	set("orderer.blocks", fblk, len(ordWait))
	set("ledger.append_us", median(appendUS), len(appendUS))
	set("ledger.bytes_per_tx", ratio(float64(p.LedgerBytes), ftx), txs)
	set("delivery.publish_us", median(publishUS), len(publishUS))
	set("delivery.deliver_ms", median(deliverMS), len(deliverMS))
	set("delivery.bytes_per_tx", ratio(float64(p.DeliveredBytes), ftx), txs)
	set("delivery.max_lag", float64(maxLag), len(ordWait))
	set("peer.commit_ms", median(commitMS), len(commitMS))
	set("validator.unmarshal_us_per_tx", ratio(us(st.Unmarshal), ftx), txs)
	set("validator.block_verify_us", ratio(us(st.BlockVerify), fblk), len(ordWait))
	set("validator.vscc_us_per_tx", ratio(us(st.VSCC), ftx), txs)
	set("validator.mvcc_us_per_tx", ratio(us(st.MVCC), ftx), txs)
	set("validator.statedb_us_per_tx", ratio(us(st.StateDB), ftx), txs)
	set("validator.ledger_us_per_block", ratio(us(st.Ledger), fblk), len(ordWait))
	set("validator.ecdsa_per_tx", ratio(float64(st.ECDSA), ftx), txs)
	set("validator.valid_frac", ratio(float64(valid), ftx), txs)
	set("validator.parse_cache_hit_rate", ratio(float64(st.ParseCacheHits), ftx), txs)
	set("fabcrypto.sig_cache_hit_rate", ratio(float64(st.SigCacheHits), float64(st.SigCacheHits+st.ECDSA)), st.SigCacheHits+st.ECDSA)
	set("pipeline.prefetch_wait_us", ratio(us(st.PrefetchWait), fblk), len(ordWait))
	set("statedb.reads_per_tx", ratio(float64(p.ReadsWrites[0]), ftx), txs)
	set("statedb.writes_per_tx", ratio(float64(p.ReadsWrites[1]), ftx), txs)
	set("load.apply_wait_us", median(applyWait), len(applyWait))
	set("trace.coverage_frac", min(t.coverage("tx"), t.coverage("block")), len(queueWait))
	return t
}
