package experiments

import (
	"crypto/ecdsa"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/metrics"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
	"bmac/internal/wire"
)

// The hotpath experiment measures the commit hot path's optimizations in
// isolation and end to end — verification cache, batch ECDSA, parse-once
// envelopes, pooled zero-copy marshaling — reporting ns/op, allocs/op and
// cache hit rates, with every optimization also measured OFF so the
// speedups are relative to a visible baseline, not an assumed one. The
// machine-readable form (HotpathRecord, written to BENCH_hotpath.json by
// `bmacbench -exp hotpath -json`) is the repository's tracked performance
// trajectory: scripts/benchgate.sh fails CI when allocs/op regress against
// the committed record.

// HotpathBench is one measured benchmark point.
type HotpathBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HitRate     float64 `json:"hit_rate,omitempty"`
}

// HotpathDerived holds the headline ratios derived from the benchmarks.
type HotpathDerived struct {
	// BlockValidateAllocsReductionX is baseline allocs/op over optimized
	// allocs/op for the end-to-end block validation benchmark.
	BlockValidateAllocsReductionX float64 `json:"block_validate_allocs_reduction_x"`
	// VerifyCachedSpeedupX is cold verification ns/op over cache-steady-
	// state ns/op for the repeated-endorser verify benchmark.
	VerifyCachedSpeedupX float64 `json:"verify_cached_speedup_x"`
	// MarshalAllocsReductionX is single-alloc Marshal allocs/op over the
	// pooled AppendBlock path's allocs/op (clamped; the pooled path's
	// steady state is zero).
	MarshalAllocsReductionX float64 `json:"marshal_allocs_reduction_x"`
	// ParseCachedSpeedupX is cold ParseTx ns/op over interned ns/op.
	ParseCachedSpeedupX float64 `json:"parse_cached_speedup_x"`
}

// HotpathRecord is the machine-readable result of the hotpath suite.
type HotpathRecord struct {
	Schema     string                  `json:"schema"`
	CPUs       int                     `json:"cpus"`
	Quick      bool                    `json:"quick"`
	Benchmarks map[string]HotpathBench `json:"benchmarks"`
	Derived    HotpathDerived          `json:"derived"`
}

// measureOp times iters calls of f and reports per-op wall time and heap
// allocations (runtime.MemStats deltas — deterministic enough to gate on
// with tolerance, unlike wall time).
func measureOp(iters int, f func()) HotpathBench {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return HotpathBench{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
	}
}

// verifyTuple is one (pub, digest, sig) check extracted from a block.
type verifyTuple struct {
	pub    *ecdsa.PublicKey
	digest []byte
	sig    []byte
}

// endorserTuples extracts every signature check of one transaction — the
// creator signature plus all endorsements — exactly as vscc performs them.
func endorserTuples(env *block.Envelope) ([]verifyTuple, error) {
	pt := validator.ParseTx(env.PayloadBytes)
	if pt.Err != nil {
		return nil, pt.Err
	}
	var out []verifyTuple
	cpub, err := fabcrypto.PublicKeyFromCert(pt.Tx.SignatureHeader.Creator)
	if err != nil {
		return nil, err
	}
	out = append(out, verifyTuple{pub: cpub, digest: fabcrypto.HashSlice(env.PayloadBytes), sig: env.Signature})
	for i := range pt.Tx.Payload.Action.Endorsements {
		e := &pt.Tx.Payload.Action.Endorsements[i]
		epub, err := fabcrypto.PublicKeyFromCert(e.Endorser)
		if err != nil {
			return nil, err
		}
		msg := block.EndorsementSigningBytes(pt.PRP, e.Endorser)
		out = append(out, verifyTuple{pub: epub, digest: fabcrypto.HashSlice(msg), sig: e.Signature})
	}
	return out, nil
}

// MeasureHotpath runs the whole hotpath suite and returns its record.
func MeasureHotpath(e *Env, opts Options) (*HotpathRecord, error) {
	o := opts.withDefaults()
	valIters, opIters := 40, 400
	if o.Quick {
		valIters, opIters = 10, 100
	}
	rec := &HotpathRecord{
		Schema:     "bmac-hotpath/1",
		CPUs:       runtime.GOMAXPROCS(0),
		Quick:      o.Quick,
		Benchmarks: map[string]HotpathBench{},
	}

	spec := BlockSpec{Txs: 16, Endorsements: 2, Reads: 2, Writes: 2}
	b, err := e.MakeBlock(spec)
	if err != nil {
		return nil, err
	}
	raw := block.Marshal(b)
	pol, err := policy.Parse("2of2")
	if err != nil {
		return nil, err
	}
	pols := map[string]*policy.Policy{"smallbank": pol}

	// --- End-to-end block validation: every optimization off vs on. ---
	validate := func(sc *fabcrypto.SigCache, cc *fabcrypto.CertCache, pc *validator.ParseCache, tm *telemetry.ValidatorMetrics) error {
		v := pipeline.New(pipeline.Config{
			Shape: pipeline.Fabric14, Workers: 1, Policies: pols, SkipLedger: true,
			SigCache: sc, CertCache: cc, ParseCache: pc, Metrics: tm,
		}, statedb.NewStore(), nil)
		res, err := v.ValidateAndCommit(raw)
		v.Close()
		if err != nil {
			return err
		}
		if got := block.CountValid(res.Flags); got != spec.Txs {
			return fmt.Errorf("hotpath: %d/%d txs valid", got, spec.Txs)
		}
		return nil
	}
	var benchErr error
	run := func(f func() error) func() {
		return func() {
			if err := f(); err != nil && benchErr == nil {
				benchErr = err
			}
		}
	}

	prevPooling := wire.BufferPooling()
	wire.SetBufferPooling(false)
	rec.Benchmarks["block_validate_baseline"] = measureOp(valIters, run(func() error {
		return validate(nil, nil, nil, nil)
	}))
	wire.SetBufferPooling(true)
	defer wire.SetBufferPooling(prevPooling)

	sc := fabcrypto.NewSigCache(1 << 15)
	cc := fabcrypto.NewCertCache(1 << 12)
	pc := validator.NewParseCache(1 << 13)
	if err := validate(sc, cc, pc, nil); err != nil { // warm to cache steady state
		return nil, err
	}
	bv := measureOp(valIters, run(func() error { return validate(sc, cc, pc, nil) }))
	bv.HitRate = sc.HitRate()
	rec.Benchmarks["block_validate_hotpath"] = bv

	// --- Telemetry plane cost: nil instruments vs a live registry. The off
	// row is the zero-cost-when-off contract: it must stay indistinguishable
	// from block_validate_hotpath (the gate checks its allocs/op against the
	// committed baseline like every other row). ---
	rec.Benchmarks["block_validate_telemetry_off"] = measureOp(valIters, run(func() error {
		return validate(sc, cc, pc, nil)
	}))
	tm := telemetry.NewValidatorMetrics(telemetry.NewRegistry(), "bench")
	rec.Benchmarks["block_validate_telemetry_on"] = measureOp(valIters, run(func() error {
		return validate(sc, cc, pc, tm)
	}))

	// --- Repeated-endorser verify: cold vs cache steady state. ---
	tuples, err := endorserTuples(&b.Envelopes[0])
	if err != nil {
		return nil, err
	}
	verIters := valIters * 4
	cold := measureOp(verIters, func() {
		for _, t := range tuples {
			if err := fabcrypto.VerifyDigest(t.pub, t.digest, t.sig); err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})
	rec.Benchmarks["repeated_endorser_verify_cold"] = cold

	vsc := fabcrypto.NewSigCache(1024)
	for _, t := range tuples { // warm
		vsc.VerifyDigest(t.pub, t.digest, t.sig) // bmaclint:allow errdiscard (warm-up: measured loop below checks errors)
	}
	cached := measureOp(verIters, func() {
		for _, t := range tuples {
			if err, _ := vsc.VerifyDigest(t.pub, t.digest, t.sig); err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})
	cached.HitRate = vsc.HitRate()
	rec.Benchmarks["repeated_endorser_verify_cached"] = cached

	// --- Batch verify sweep: endorsement count x worker count. ---
	for _, endorse := range []int{2, 4} {
		eb, err := e.MakeBlock(BlockSpec{Txs: 1, Endorsements: endorse, Reads: 1, Writes: 1})
		if err != nil {
			return nil, err
		}
		ets, err := endorserTuples(&eb.Envelopes[0])
		if err != nil {
			return nil, err
		}
		reqs := make([]fabcrypto.VerifyRequest, len(ets))
		for i, t := range ets {
			reqs[i] = fabcrypto.VerifyRequest{Pub: t.pub, Digest: t.digest, Sig: t.sig}
		}
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("batch_verify_e%d_w%d", endorse, workers)
			var nilCache *fabcrypto.SigCache
			rec.Benchmarks[name] = measureOp(valIters, func() {
				for _, r := range nilCache.VerifyBatch(reqs, workers) {
					if r.Err != nil && benchErr == nil {
						benchErr = r.Err
					}
				}
			})
		}
	}

	// --- Certificate parse: cold x509 walk vs interned. ---
	creatorDER := func() []byte {
		pt := validator.ParseTx(b.Envelopes[0].PayloadBytes)
		return pt.Tx.SignatureHeader.Creator
	}()
	rec.Benchmarks["cert_parse_cold"] = measureOp(opIters, func() {
		if _, err := fabcrypto.PublicKeyFromCert(creatorDER); err != nil && benchErr == nil {
			benchErr = err
		}
	})
	ccc := fabcrypto.NewCertCache(64)
	ccc.PublicKeyFromCert(creatorDER) // bmaclint:allow errdiscard (warm-up: measured loop below checks errors)
	cb := measureOp(opIters, func() {
		if _, err := ccc.PublicKeyFromCert(creatorDER); err != nil && benchErr == nil {
			benchErr = err
		}
	})
	cb.HitRate = ccc.HitRate()
	rec.Benchmarks["cert_parse_cached"] = cb

	// --- Parse-once: cold unmarshal walk vs interned. ---
	payload := b.Envelopes[0].PayloadBytes
	rec.Benchmarks["parse_tx_cold"] = measureOp(opIters, func() {
		if pt := validator.ParseTx(payload); pt.Err != nil && benchErr == nil {
			benchErr = pt.Err
		}
	})
	ppc := validator.NewParseCache(64)
	ppc.ParseTx(payload) // warm
	pb := measureOp(opIters, func() {
		if pt, _ := ppc.ParseTx(payload); pt.Err != nil && benchErr == nil {
			benchErr = pt.Err
		}
	})
	pb.HitRate = ppc.HitRate()
	rec.Benchmarks["parse_tx_cached"] = pb

	// --- Marshal: exact-size single alloc vs pooled zero alloc. ---
	rec.Benchmarks["marshal_block"] = measureOp(opIters, func() {
		_ = block.Marshal(b)
	})
	rec.Benchmarks["marshal_block_pooled"] = measureOp(opIters, func() {
		buf := block.AppendBlock(wire.GetBuf(block.Size(b)), b)
		wire.PutBuf(buf)
	})

	if benchErr != nil {
		return nil, benchErr
	}

	clamp := func(v float64) float64 {
		if v < 0.05 {
			return 0.05
		}
		return v
	}
	d := &rec.Derived
	d.BlockValidateAllocsReductionX = rec.Benchmarks["block_validate_baseline"].AllocsPerOp /
		clamp(rec.Benchmarks["block_validate_hotpath"].AllocsPerOp)
	d.VerifyCachedSpeedupX = cold.NsPerOp / clamp(cached.NsPerOp)
	d.MarshalAllocsReductionX = rec.Benchmarks["marshal_block"].AllocsPerOp /
		clamp(rec.Benchmarks["marshal_block_pooled"].AllocsPerOp)
	d.ParseCachedSpeedupX = rec.Benchmarks["parse_tx_cold"].NsPerOp / clamp(pb.NsPerOp)
	return rec, nil
}

// hotpathBenchOrder fixes the table's presentation order.
var hotpathBenchOrder = []string{
	"block_validate_baseline", "block_validate_hotpath",
	"block_validate_telemetry_off", "block_validate_telemetry_on",
	"repeated_endorser_verify_cold", "repeated_endorser_verify_cached",
	"batch_verify_e2_w1", "batch_verify_e2_w2", "batch_verify_e2_w4",
	"batch_verify_e4_w1", "batch_verify_e4_w2", "batch_verify_e4_w4",
	"cert_parse_cold", "cert_parse_cached",
	"parse_tx_cold", "parse_tx_cached",
	"marshal_block", "marshal_block_pooled",
}

// Table renders the record for terminal output.
func (r *HotpathRecord) Table() *metrics.Table {
	t := &metrics.Table{Header: []string{"benchmark", "ns/op", "allocs/op", "hit%"}}
	for _, name := range hotpathBenchOrder {
		b, ok := r.Benchmarks[name]
		if !ok {
			continue
		}
		hit := "-"
		if b.HitRate > 0 {
			hit = fmt.Sprintf("%.0f%%", b.HitRate*100)
		}
		t.AddRow(name, fmt.Sprintf("%.0f", b.NsPerOp), fmt.Sprintf("%.1f", b.AllocsPerOp), hit)
	}
	t.AddRow("", "", "", "")
	t.AddRow("derived: block-validate allocs reduction",
		fmt.Sprintf("%.1fx", r.Derived.BlockValidateAllocsReductionX), "", "")
	t.AddRow("derived: verify cached speedup",
		fmt.Sprintf("%.1fx", r.Derived.VerifyCachedSpeedupX), "", "")
	t.AddRow("derived: parse cached speedup",
		fmt.Sprintf("%.1fx", r.Derived.ParseCachedSpeedupX), "", "")
	t.AddRow("derived: marshal allocs reduction",
		fmt.Sprintf("%.1fx", r.Derived.MarshalAllocsReductionX), "", "")
	return t
}

// FigHotpath runs the suite and renders its table.
func FigHotpath(e *Env, opts Options) (*metrics.Table, error) {
	rec, err := MeasureHotpath(e, opts)
	if err != nil {
		return nil, err
	}
	return rec.Table(), nil
}

// WriteJSON writes the record to path (the tracked benchmark file).
func (r *HotpathRecord) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadHotpathRecord reads a record written by WriteJSON.
func LoadHotpathRecord(path string) (*HotpathRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &HotpathRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("hotpath baseline %s: %w", path, err)
	}
	return rec, nil
}

// Gate compares the record's allocs/op against a committed baseline with
// relative tolerance tol (e.g. 0.25 = +25%) plus a small absolute slack,
// returning an error listing every regressed benchmark. Wall time is NOT
// gated — only allocation counts are stable enough across machines.
func (r *HotpathRecord) Gate(baseline *HotpathRecord, tol float64) error {
	const slack = 8 // absolute allocs/op headroom for runtime noise
	var regressions []string
	for name, base := range baseline.Benchmarks {
		cur, ok := r.Benchmarks[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		limit := base.AllocsPerOp*(1+tol) + slack
		if cur.AllocsPerOp > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %.1f > limit %.1f (baseline %.1f)",
					name, cur.AllocsPerOp, limit, base.AllocsPerOp))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("hotpath benchmark regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
