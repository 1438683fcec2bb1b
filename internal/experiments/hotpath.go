package experiments

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/core"
	"bmac/internal/fabcrypto"
	"bmac/internal/fifo"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/peer"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/wire"
)

// The hotpath experiment measures the commit hot path's optimizations in
// isolation and end to end — certificate cache, per-identity key tables,
// pooled zero-copy marshaling — and the submit side's
// signature, reporting ns/op, allocs/op and cache hit rates, with every
// optimization also measured OFF so the speedups are relative to a visible
// baseline, not an assumed one. The machine-readable form (HotpathRecord,
// written to BENCH_hotpath.json by `bmacbench -exp hotpath -json`) is the
// repository's tracked performance trajectory: scripts/benchgate.sh fails
// CI when allocs/op regress against the committed record, or when the
// within-run ratios of the verification engine, the BMac sender or the
// signer leave their limits.

// HotpathBench is one measured benchmark point.
type HotpathBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HitRate     float64 `json:"hit_rate,omitempty"`

	rounds []float64 // ns/op in each of measureOps' rounds; not recorded
}

// HotpathDerived holds the headline ratios derived from the benchmarks.
type HotpathDerived struct {
	// BlockValidateAllocsReductionX is baseline allocs/op over optimized
	// allocs/op for the end-to-end block validation benchmark.
	BlockValidateAllocsReductionX float64 `json:"block_validate_allocs_reduction_x"`
	// MarshalAllocsReductionX is single-alloc Marshal allocs/op over the
	// pooled AppendBlock path's allocs/op (clamped; the pooled path's
	// steady state is zero).
	MarshalAllocsReductionX float64 `json:"marshal_allocs_reduction_x"`
	// VerifyTableSpeedupX is crypto/ecdsa ns/op over the key-table engine's
	// ns/op for the same key, digest and signature, measured interleaved.
	VerifyTableSpeedupX float64 `json:"verify_table_speedup_x"`
	// KeyTableBuildVerifiesX is what building one key's table costs in
	// crypto/ecdsa verifications, the two measured interleaved: the price
	// that fabcrypto.PromoteAfter verifications of rent are weighed against.
	KeyTableBuildVerifiesX float64 `json:"key_table_build_verifies_x"`
	// SignSpeedupX is crypto/ecdsa's hedged signer's ns/op over
	// fabcrypto's deterministic one's, the two measured interleaved.
	SignSpeedupX float64 `json:"sign_speedup_x"`
	// SingleUseOverStdlib is ecdsa_verify_single_use_key ÷
	// ecdsa_verify_stdlib as the median of measureOps' per-round quotients:
	// both rows are crypto/ecdsa verifications, so the quotient of their
	// totals swings with whatever slowed a few rounds of one of them.
	SingleUseOverStdlib float64 `json:"single_use_over_stdlib"`
	// SignOverStdlib is ecdsa_sign ÷ ecdsa_sign_stdlib as the median of
	// measureOps' per-round quotients: the standard library's row swings
	// between runs far more than fabcrypto's, and with it the quotient of
	// their totals.
	SignOverStdlib float64 `json:"sign_over_stdlib"`
}

// HotpathRecord is the machine-readable result of the hotpath suite.
type HotpathRecord struct {
	Schema     string                  `json:"schema"`
	CPUs       int                     `json:"cpus"`
	Quick      bool                    `json:"quick"`
	Benchmarks map[string]HotpathBench `json:"benchmarks"`
	// RatioRows names the rows measured interleaved in one measureOps call:
	// their ns/op are meant to be divided by the first one's, and those
	// quotients — not any absolute ns — are what Gate holds to a limit.
	// (key_table_build is interleaved with a crypto/ecdsa row of its own;
	// its quotient is Derived.KeyTableBuildVerifiesX.)
	RatioRows []string       `json:"ratio_rows"`
	Derived   HotpathDerived `json:"derived"`
	// Lanes reports that the batch rows' affine levels ran on the 8-lane
	// kernel (fabcrypto.Lanes); without it ecdsa_verify_batch and
	// ecdsa_verify_batch_scalar run the same code and their gate does not
	// apply.
	Lanes bool `json:"lanes"`
	// HashLanes reports that sha256_range_lanes ran on the 16-lane SHA-256
	// kernel (fabcrypto.HashLanes); without it both sha256 rows hash one
	// message at a time and their gate does not apply.
	HashLanes bool `json:"hash_lanes"`
}

// measureOps times iters calls of each function and reports per-op wall
// time (total time over calls) and heap allocations (runtime.MemStats
// deltas — deterministic enough to gate on with tolerance, unlike wall time).
// Several functions are interleaved in short rounds, so that a host whose
// speed drifts during the run treats them alike and the quotient of two rows
// of one call is meaningful where their absolute ns are not; MemStats is
// read between the rounds, never inside a timed span. Each row also keeps
// its ns/op per round, for medianRoundQuotient.
func measureOps(iters int, fs ...func()) []HotpathBench {
	const rounds = 40
	chunk := max(1, iters/rounds)
	ns := make([]time.Duration, len(fs))
	mallocs := make([]uint64, len(fs))
	perRound := make([][]float64, len(fs))
	runtime.GC()
	var m0, m1 runtime.MemStats
	for done := 0; done < iters; done += chunk {
		n := min(chunk, iters-done)
		for j, f := range fs {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			d := time.Since(t0)
			ns[j] += d
			perRound[j] = append(perRound[j], float64(d.Nanoseconds())/float64(n))
			runtime.ReadMemStats(&m1)
			mallocs[j] += m1.Mallocs - m0.Mallocs
		}
	}
	out := make([]HotpathBench, len(fs))
	for j := range out {
		out[j] = HotpathBench{
			NsPerOp:     float64(ns[j].Nanoseconds()) / float64(iters),
			AllocsPerOp: float64(mallocs[j]) / float64(iters),
			rounds:      perRound[j],
		}
	}
	return out
}

// medianRoundQuotient is the median over the rounds of one measureOps call
// of num's ns/op over den's: what a host that slows some rounds down moves
// least.
func medianRoundQuotient(num, den HotpathBench) float64 {
	n := len(num.rounds)
	if n == 0 {
		return math.NaN()
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = num.rounds[i] / den.rounds[i]
	}
	slices.Sort(q)
	return (q[(n-1)/2] + q[n/2]) / 2
}

// measureOp is measureOps for one function.
func measureOp(iters int, f func()) HotpathBench { return measureOps(iters, f)[0] }

// verifyTuple is one (pub, digest, sig) check extracted from a block.
type verifyTuple struct {
	pub    *ecdsa.PublicKey
	digest []byte
	sig    []byte
}

// endorserTuples extracts every signature check of one transaction — the
// creator signature plus all endorsements — exactly as vscc performs them.
func endorserTuples(env *block.Envelope) ([]verifyTuple, error) {
	v, err := block.NewTxView(env.PayloadBytes)
	if err != nil {
		return nil, err
	}
	var out []verifyTuple
	cpub, err := fabcrypto.PublicKeyFromCert(v.Creator())
	if err != nil {
		return nil, err
	}
	out = append(out, verifyTuple{pub: cpub, digest: fabcrypto.HashSlice(env.PayloadBytes), sig: env.Signature})
	for i := range v.NumEndorsements() {
		e := v.Endorsement(i)
		epub, err := fabcrypto.PublicKeyFromCert(e.Endorser)
		if err != nil {
			return nil, err
		}
		digest := block.EndorsementDigest(v.ProposalResponseBytes(), e.Endorser)
		out = append(out, verifyTuple{pub: epub, digest: digest[:], sig: e.Signature})
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
		RatioRows:  hotpathRatioRows,
		Lanes:      fabcrypto.Lanes(),
		HashLanes:  fabcrypto.HashLanes(),
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

	// --- End-to-end block validation: the certificate cache off vs on. Each
	// run verifies every signature of the block. ---
	validate := func(cc *fabcrypto.CertCache, tm *telemetry.ValidatorMetrics) error {
		v := pipeline.New(pipeline.Config{
			Workers: 1, Policies: pols, Members: e.Members,
			CertCache: cc, Metrics: tm,
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

	rec.Benchmarks["block_validate_baseline"] = measureOp(valIters, run(func() error {
		return validate(nil, nil)
	}))

	cc := fabcrypto.NewCertCache(1 << 12)
	if err := validate(cc, nil); err != nil { // warm to cache steady state
		return nil, err
	}
	rec.Benchmarks["block_validate_hotpath"] = measureOp(valIters, run(func() error { return validate(cc, nil) }))

	// --- Telemetry plane cost: nil instruments vs a live registry. The off
	// row is the zero-cost-when-off contract: it must stay indistinguishable
	// from block_validate_hotpath (the gate checks its allocs/op against the
	// committed baseline like every other row). ---
	rec.Benchmarks["block_validate_telemetry_off"] = measureOp(valIters, run(func() error {
		return validate(cc, nil)
	}))
	tm := telemetry.NewValidatorMetrics(telemetry.NewRegistry(), "bench")
	rec.Benchmarks["block_validate_telemetry_on"] = measureOp(valIters, run(func() error {
		return validate(cc, tm)
	}))

	// --- Receive to commit: the block as a software peer receives it — its
	// gossip frame read and decoded once (gossip.ReadBlock), then validated
	// and committed to a ledger in a temp dir (peer.CommitBlock) — with the
	// certificate cache warm. Each call commits the next block of a chain
	// that repeats the block's envelopes under fresh headers. ---
	const warmBlocks = 2
	frames, err := gossipFrames(e, b, warmBlocks+valIters)
	if err != nil {
		return nil, err
	}
	ledgerDir, err := os.MkdirTemp("", "bmac-hotpath-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ledgerDir)
	p, err := peer.Open(pipeline.Config{
		Workers: 1, Policies: pols, Members: e.Members, CertCache: cc,
	}, statedb.NewStore(), ledgerDir, peer.DurableOptions{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	receive := func() error {
		rb, _, err := gossip.ReadBlock(bytes.NewReader(frames[0]))
		frames = frames[1:]
		if err != nil {
			return err
		}
		res, err := p.CommitBlock(rb)
		if err != nil {
			return err
		}
		if got := block.CountValid(res.Flags); got != spec.Txs {
			return fmt.Errorf("hotpath: receive_to_commit block %d: %d/%d txs valid", res.BlockNum, got, spec.Txs)
		}
		return nil
	}
	for i := 0; i < warmBlocks; i++ {
		if err := receive(); err != nil {
			return nil, err
		}
	}
	rec.Benchmarks["receive_to_commit"] = measureOp(valIters, run(receive))

	// --- Repeated-endorser verify: one transaction's signatures, one call
	// each. ---
	tuples, err := endorserTuples(&b.Envelopes[0])
	if err != nil {
		return nil, err
	}
	verIters := valIters * 4
	rec.Benchmarks["repeated_endorser_verify_cold"] = measureOp(verIters, func() {
		for _, t := range tuples {
			if err := fabcrypto.VerifyDigest(t.pub, t.digest, t.sig); err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})

	// --- The verification engine against crypto/ecdsa: the same key, digest
	// and signature on both, in this process, interleaved (the ratio rows).
	// The stdlib row calls crypto/ecdsa directly; the table row is
	// fabcrypto.VerifyDigest once the key has its table; the single-use row
	// is VerifyDigest under a key never seen before, i.e. what looking and
	// counting costs a signature the engine cannot help. The build row
	// builds the key's table on a store of its own, so the process-wide
	// engine keeps the tables of the identities it serves. ---
	// The batch row verifies the 300 signatures of a 100-tx 2-of-2 block
	// (the client's key and two endorsers', beside G) the way the engine's
	// verify stage does: one fabcrypto.Batch per range of pipeline.VSCCRange
	// transactions, no cache. One call is one range; its ns and allocs are
	// divided by the signatures of an average range. The batch_scalar row is
	// the same ranges with the affine levels on the scalar kernel
	// (Batch.RunScalar), the same code as the batch row on a CPU without
	// the 8-lane one. The BMac row puts the
	// same block's FIFO entries through an 8x2 core.Processor and waits for
	// its result: 301 signatures — the orderer's, then every client's as one
	// round and every endorsement as the next — for one call. ---
	vt := tuples[0]
	vparts, err := fabcrypto.DecodeDERToParts(vt.sig)
	if err != nil {
		return nil, err
	}
	vr, vs := new(big.Int).SetBytes(vparts.R[:]), new(big.Int).SetBytes(vparts.S[:])
	encBlock, err := e.MakeBlock(BlockSpec{Txs: 100, Endorsements: 2, Reads: 2, Writes: 2})
	if err != nil {
		return nil, err
	}
	var blockSigs []verifyTuple
	for i := range encBlock.Envelopes {
		ts, err := endorserTuples(&encBlock.Envelopes[i])
		if err != nil {
			return nil, err
		}
		blockSigs = append(blockSigs, ts...)
	}
	rangeTxs := pipeline.VSCCRange(len(encBlock.Envelopes), runtime.GOMAXPROCS(0))
	perRange := len(tuples) * rangeTxs
	// rangeRow is one range row's place in the block and its tally.
	type rangeRow struct{ lo, calls, sigs int }
	var batch fabcrypto.Batch
	verifyRange := func(r *rangeRow, runBatch func()) func() error {
		return func() error {
			rng := blockSigs[r.lo:min(r.lo+perRange, len(blockSigs))]
			r.lo = (r.lo + perRange) % len(blockSigs)
			r.calls, r.sigs = r.calls+1, r.sigs+len(rng)
			batch.Reset()
			for _, t := range rng {
				batch.Add(t.pub, t.digest, t.sig)
			}
			runBatch()
			for i := range rng {
				if err := batch.Err(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var warm, lanes, scalar rangeRow
	for warmRange := verifyRange(&warm, batch.Run); warm.sigs < 2*len(blockSigs); { // every key of the block earns its table before the timed rows
		if err := warmRange(); err != nil {
			return nil, err
		}
	}
	bmacSigs := 1 + len(blockSigs) // the orderer's
	bmacValidate, stopBMac, err := bmacValidateOp(e, encBlock, pol, bmacSigs)
	if err != nil {
		return nil, err
	}
	defer stopBMac()
	for i := 0; i < fabcrypto.PromoteAfter; i++ { // the orderer's key, which signs once a block
		if err := bmacValidate(); err != nil {
			return nil, err
		}
	}
	fresh, err := freshKeyTuples(opIters)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fabcrypto.PromoteAfter; i++ { // vt's key has its table from here on
		if err := fabcrypto.VerifyDigest(vt.pub, vt.digest, vt.sig); err != nil {
			return nil, err
		}
	}
	stdlib := func() {
		if !ecdsa.Verify(vt.pub, vt.digest, vr, vs) && benchErr == nil {
			benchErr = fabcrypto.ErrVerifyFailed
		}
	}
	before := fabcrypto.KeyTableStats()
	eng := measureOps(opIters, stdlib,
		run(func() error { return fabcrypto.VerifyDigest(vt.pub, vt.digest, vt.sig) }),
		run(func() error {
			t := fresh[0]
			fresh = fresh[1:]
			return fabcrypto.VerifyDigest(t.pub, t.digest, t.sig)
		}),
		run(verifyRange(&lanes, batch.Run)), run(verifyRange(&scalar, batch.RunScalar)), run(bmacValidate))
	perSig := func(b *HotpathBench, r rangeRow) {
		b.NsPerOp *= float64(r.calls) / float64(r.sigs)
		b.AllocsPerOp *= float64(r.calls) / float64(r.sigs)
	}
	perSig(&eng[3], lanes)
	perSig(&eng[4], scalar)
	eng[5].NsPerOp /= float64(bmacSigs)
	eng[5].AllocsPerOp /= float64(bmacSigs)
	// A build leaves ≈ 380 KB of garbage and touches ≈ 530 KB, which slows
	// whatever runs next to it: it gets a crypto/ecdsa row of its own.
	build := measureOps(opIters, stdlib, func() {
		if !fabcrypto.BuildKeyTable(vt.pub) && benchErr == nil {
			benchErr = fmt.Errorf("hotpath: no table for a P-256 key")
		}
	})
	after := fabcrypto.KeyTableStats()
	if n := int64(opIters); after.TableVerifies-before.TableVerifies != n+int64(lanes.sigs+scalar.sigs)+n*int64(bmacSigs) ||
		after.StdlibVerifies-before.StdlibVerifies != n || after.TablesBuilt != before.TablesBuilt {
		return nil, fmt.Errorf("hotpath: engine rows ran on the wrong path: %+v -> %+v", before, after)
	}
	for i, name := range hotpathRatioRows {
		rec.Benchmarks[name] = eng[i]
	}
	rec.Derived.SingleUseOverStdlib = medianRoundQuotient(eng[2], eng[0])
	rec.Benchmarks["key_table_build"] = build[1]

	// --- SHA-256 over one vscc range of the same block: its client
	// payloads and endorsement messages, each on its own stream
	// (sha256_range), and as VSCC hashes them, one fabcrypto.HashBatch for
	// the payloads and one for the endorsement round (sha256_range_lanes),
	// interleaved (the hash rows). One call is one range. ---
	var creators, endorsements []fabcrypto.Message
	for i := range encBlock.Envelopes[:rangeTxs] {
		env := &encBlock.Envelopes[i]
		v, err := block.NewTxView(env.PayloadBytes)
		if err != nil {
			return nil, err
		}
		creators = append(creators, fabcrypto.Message{A: env.PayloadBytes})
		for k := range v.NumEndorsements() {
			endorsements = append(endorsements, block.EndorsementMessage(v.ProposalResponseBytes(), v.Endorsement(k).Endorser))
		}
	}
	rangeMsgs := append(slices.Clip(creators), endorsements...)
	one, batched := make([][fabcrypto.HashSize]byte, len(rangeMsgs)), make([][fabcrypto.HashSize]byte, len(rangeMsgs))
	hashOne := func() {
		for i := range rangeMsgs {
			one[i] = rangeMsgs[i].Hash()
		}
	}
	hashBatched := func() {
		fabcrypto.HashBatch(batched, creators)
		fabcrypto.HashBatch(batched[len(creators):], endorsements)
	}
	hash := measureOps(8*opIters, hashOne, hashBatched)
	if !slices.Equal(one, batched) {
		return nil, fmt.Errorf("hotpath: HashBatch digests differ from crypto/sha256's")
	}
	for i, name := range hotpathHashRows {
		rec.Benchmarks[name] = hash[i]
	}

	// --- Signing: fabcrypto's signer (RFC 6979 nonce, low-S) against
	// crypto/ecdsa's hedged signer, which mixes crypto/rand into the nonce
	// (Fabric's signer), against crypto/ecdsa's RFC 6979 signer, which
	// gives the same signatures before low-S, and against itself with k·G
	// by crypto/ecdh instead of the lanes' comb, under one key over the
	// same 64 digests, interleaved (the sign rows). ---
	signer, err := fabcrypto.NewSigner()
	if err != nil {
		return nil, err
	}
	digests := make([][]byte, 64)
	for i := range digests {
		digests[i] = fabcrypto.HashSlice([]byte{byte(i)})
	}
	signOp := func(sign func(digest []byte) ([]byte, error)) func() {
		i := 0
		return run(func() error {
			_, err := sign(digests[i%len(digests)])
			i++
			return err
		})
	}
	if _, err := signer.SignDigest(digests[0]); err != nil { // builds the comb's table, once per process
		return nil, err
	}
	sign := measureOps(16*opIters,
		signOp(func(d []byte) ([]byte, error) { return ecdsa.SignASN1(rand.Reader, signer.Private(), d) }),
		signOp(func(d []byte) ([]byte, error) { return signer.Private().Sign(nil, d, crypto.SHA256) }),
		signOp(signer.SignDigest),
		signOp(signer.SignDigestECDH))
	for i, name := range hotpathSignRows {
		rec.Benchmarks[name] = sign[i]
	}
	rec.Derived.SignOverStdlib = medianRoundQuotient(sign[2], sign[1])

	// --- Certificate parse: cold x509 walk vs interned. ---
	v, err := block.NewTxView(b.Envelopes[0].PayloadBytes)
	if err != nil {
		return nil, err
	}
	creatorDER := v.Creator()
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

	// --- One payload's parse: through the struct decoders, the view's
	// oracle (parse_tx_cold), and validated into a block.TxView, as the
	// engine parses each (tx_view), interleaved. ---
	payload := b.Envelopes[0].PayloadBytes
	parse := measureOps(4*opIters, run(func() error {
		tx, err := block.UnmarshalTransactionPayload(payload)
		if err != nil {
			return err
		}
		_, err = block.UnmarshalProposalResponsePayload(tx.Payload.Action.ProposalResponseBytes)
		return err
	}), run(func() error {
		_, err := block.NewTxView(payload)
		return err
	}))
	for i, name := range hotpathParseRows {
		rec.Benchmarks[name] = parse[i]
	}

	// --- Marshal: exact-size single alloc vs pooled zero alloc — and, in
	// the same rounds, the BMac sender's EncodeBlock of a 100-tx block with
	// the default network registered and with 64 identities registered.
	// The sender finds identity fields by walking the envelope, so the two
	// must cost the same; when it swept every registered certificate over
	// every byte the second was 13× the first. ---
	sender := bmacproto.NewSender(identity.NewCache(), nil)
	sender64 := bmacproto.NewSender(identity.NewCache(), nil)
	for _, s := range []*bmacproto.Sender{sender, sender64} {
		if err := s.RegisterNetwork(e.Net); err != nil {
			return nil, err
		}
	}
	if err := registerFillers(sender64, 64-len(e.Net.Identities())); err != nil {
		return nil, err
	}
	encode := func(s *bmacproto.Sender) func() {
		return run(func() error {
			_, _, err := s.EncodeBlock(encBlock)
			return err
		})
	}
	enc := measureOps(4*opIters, func() { _ = block.Marshal(b) }, encode(sender), encode(sender64))
	for i, name := range hotpathEncodeRows {
		rec.Benchmarks[name] = enc[i]
	}
	rec.Benchmarks["marshal_block_pooled"] = measureOp(opIters, func() {
		buf := block.AppendBlock(wire.GetBuf(block.Size(b)), b)
		wire.PutBuf(buf)
	})
	// The submit side's encoder: one transaction payload, exact-size.
	tx, err := block.UnmarshalTransactionPayload(b.Envelopes[0].PayloadBytes)
	if err != nil {
		return nil, err
	}
	rec.Benchmarks["marshal_tx_payload"] = measureOp(4*opIters, func() { _ = block.MarshalTransactionPayload(tx) })

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
	d.MarshalAllocsReductionX = rec.Benchmarks["marshal_block"].AllocsPerOp /
		clamp(rec.Benchmarks["marshal_block_pooled"].AllocsPerOp)
	d.VerifyTableSpeedupX = eng[0].NsPerOp / clamp(eng[1].NsPerOp)
	d.KeyTableBuildVerifiesX = build[1].NsPerOp / clamp(build[0].NsPerOp)
	d.SignSpeedupX = sign[0].NsPerOp / clamp(sign[2].NsPerOp)
	return rec, nil
}

// registerFillers enrols n more identities with s, from a network of their
// own (an org issues at most 16 per role) under ids above any real org's.
func registerFillers(s *bmacproto.Sender, n int) error {
	filler := identity.NewNetwork([]byte("fillers"))
	for i := 0; i < n; i++ {
		org := fmt.Sprintf("Filler%d", i/16)
		if i%16 == 0 {
			if _, err := filler.AddOrg(org); err != nil {
				return err
			}
		}
		id, err := filler.NewIdentity(org, identity.RolePeer)
		if err != nil {
			return err
		}
		if err := s.RegisterIdentity(identity.Encode(uint8(128+i/16), identity.RolePeer, uint8(i%16)), id.Cert); err != nil {
			return err
		}
	}
	return nil
}

// bmacValidateOp returns an operation that writes the FIFO entries of b — a
// block of transactions under pol, taken once from a protocol receiver — to
// an 8x2 block processor and waits for the result, which must account for
// sigs engine invocations; stop shuts the processor down.
func bmacValidateOp(e *Env, b *block.Block, pol *policy.Policy, sigs int) (op func() error, stop func(), err error) {
	wire := bmacproto.NewBuffers() // its depths hold a 100-tx block with nobody reading
	recv := bmacproto.NewReceiver(identity.NewCache(), wire)
	sender := bmacproto.NewSender(identity.NewCache(), bmacproto.NewMemLink(recv))
	if err := sender.RegisterNetwork(e.Net); err != nil {
		return nil, nil, err
	}
	if _, err := sender.SendBlock(b); err != nil {
		return nil, nil, err
	}
	blk, ok := wire.Block.TryPop()
	if !ok || wire.Tx.Len() != len(b.Envelopes) {
		return nil, nil, fmt.Errorf("hotpath: receiver wrote %d of %d transactions", wire.Tx.Len(), len(b.Envelopes))
	}
	txs, ends := drainFIFO(wire.Tx), drainFIFO(wire.Ends)
	reads, writes := drainFIFO(wire.Rdset), drainFIFO(wire.Wrset)

	bufs := bmacproto.NewBuffers()
	proc := core.New(core.Config{
		TxValidators: 8, VSCCEngines: 2,
		Policies: map[string]*policy.Circuit{"smallbank": policy.Compile(pol)},
	}, bufs, statedb.NewHardwareKVS(4*len(writes)))
	proc.Start()
	stop = func() {
		bufs.Close()
		proc.Wait()
	}
	op = func() error {
		// Every FIFO holds a whole block, so a transaction's entries are
		// there when block_validate pops its tx entry.
		if err := errors.Join(bufs.Block.Push(blk), fillFIFO(bufs.Ends, ends),
			fillFIFO(bufs.Rdset, reads), fillFIFO(bufs.Wrset, writes), fillFIFO(bufs.Tx, txs)); err != nil {
			return err
		}
		// Only the first pass finds the versions it read: what is measured
		// is verification, which comes before mvcc.
		res, ok := proc.GetBlockData()
		if !ok || !res.BlockValid || res.Stats.EngineInvokes != sigs {
			return fmt.Errorf("hotpath: bmac block valid %v with %d engine invocations, want %d", res.BlockValid, res.Stats.EngineInvokes, sigs)
		}
		return nil
	}
	return op, stop, nil
}

func drainFIFO[T any](f *fifo.FIFO[T]) (out []T) {
	for v, ok := f.TryPop(); ok; v, ok = f.TryPop() {
		out = append(out, v)
	}
	return out
}

func fillFIFO[T any](f *fifo.FIFO[T], vs []T) error {
	for _, v := range vs {
		if err := f.Push(v); err != nil {
			return err
		}
	}
	return nil
}

// gossipFrames returns the gossip frames of an n-block chain whose every
// block carries b's envelopes, each under its own header signed by the
// suite's orderer.
func gossipFrames(e *Env, b *block.Block, n int) ([][]byte, error) {
	frames := make([][]byte, n)
	var prev []byte
	for i := range frames {
		nb, err := block.NewBlock(uint64(i), prev, b.Envelopes, e.Orderer)
		if err != nil {
			return nil, err
		}
		prev = block.HeaderHash(&nb.Header)
		var buf bytes.Buffer
		if _, err := gossip.WriteBlock(&buf, nb); err != nil {
			return nil, err
		}
		frames[i] = buf.Bytes()
	}
	return frames, nil
}

// freshKeyTuples returns n valid (pub, digest, sig) checks, each under a key
// generated just now.
func freshKeyTuples(n int) ([]verifyTuple, error) {
	out := make([]verifyTuple, n)
	for i := range out {
		signer, err := fabcrypto.NewSigner()
		if err != nil {
			return nil, err
		}
		digest := fabcrypto.HashSlice([]byte{byte(i), byte(i >> 8)})
		sig, err := signer.SignDigest(digest)
		if err != nil {
			return nil, err
		}
		out[i] = verifyTuple{pub: signer.Public(), digest: digest, sig: sig}
	}
	return out, nil
}

// hotpathRatioRows are the engine rows MeasureHotpath measures interleaved,
// in that order; the first is the denominator of the others.
var hotpathRatioRows = []string{"ecdsa_verify_stdlib", "ecdsa_verify_table", "ecdsa_verify_single_use_key", "ecdsa_verify_batch", "ecdsa_verify_batch_scalar", "bmac_validate_block"}

// hotpathHashRows are measured interleaved likewise: one range's digests
// one at a time, then as VSCC hashes them.
var hotpathHashRows = []string{"sha256_range", "sha256_range_lanes"}

// hotpathSignRows are measured interleaved likewise: crypto/ecdsa's hedged
// and RFC 6979 signers, and fabcrypto's own with k·G by crypto/ecdh, are the
// denominators of fabcrypto's.
var hotpathSignRows = []string{"ecdsa_sign_hedged", "ecdsa_sign_stdlib", "ecdsa_sign", "ecdsa_sign_ecdh"}

// hotpathParseRows are measured interleaved likewise: one payload through
// the struct decoders, then validated into a view.
var hotpathParseRows = []string{"parse_tx_cold", "tx_view"}

// hotpathEncodeRows are measured interleaved likewise: the marshal of the
// suite's 16-tx block is the yardstick for the two 100-tx EncodeBlock rows.
var hotpathEncodeRows = []string{"marshal_block", "bmac_encode_block", "bmac_encode_block_64ids"}

// hotpathBenchOrder fixes the table's presentation order.
var hotpathBenchOrder = []string{
	"block_validate_baseline", "block_validate_hotpath",
	"block_validate_telemetry_off", "block_validate_telemetry_on",
	"receive_to_commit",
	"repeated_endorser_verify_cold",
	"ecdsa_verify_stdlib", "ecdsa_verify_table", "ecdsa_verify_single_use_key", "ecdsa_verify_batch", "ecdsa_verify_batch_scalar", "bmac_validate_block",
	"key_table_build",
	"sha256_range", "sha256_range_lanes",
	"ecdsa_sign_hedged", "ecdsa_sign_stdlib", "ecdsa_sign", "ecdsa_sign_ecdh",
	"cert_parse_cold", "cert_parse_cached",
	"parse_tx_cold", "tx_view",
	"marshal_block", "marshal_block_pooled", "marshal_tx_payload",
	"bmac_encode_block", "bmac_encode_block_64ids",
}

// Table renders the record for terminal output.
func (r *HotpathRecord) Table() *Table {
	t := &Table{Header: []string{"benchmark", "ns/op", "allocs/op", "hit%"}}
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
	t.AddRow("derived: verify table speedup",
		fmt.Sprintf("%.1fx", r.Derived.VerifyTableSpeedupX), "", "")
	lanes := "n/a (no 8-lane kernel)"
	if r.Lanes {
		lanes = fmt.Sprintf("%.2f", r.LanesOverScalar())
	}
	t.AddRow("derived: batch on the lanes / on the scalar levels", lanes, "", "")
	hashLanes := "n/a (no 16-lane SHA-256 kernel)"
	if r.HashLanes {
		hashLanes = fmt.Sprintf("%.2f", r.HashLanesOverOne())
	}
	t.AddRow("derived: a range's digests on the hash lanes / one at a time", hashLanes, "", "")
	t.AddRow("derived: single-use key / stdlib, median of rounds",
		fmt.Sprintf("%.2f", r.Derived.SingleUseOverStdlib), "", "")
	t.AddRow("derived: key table build, in stdlib verifications",
		fmt.Sprintf("%.1fx", r.Derived.KeyTableBuildVerifiesX), "", "")
	t.AddRow("derived: sign / stdlib RFC 6979 sign, median of rounds",
		fmt.Sprintf("%.2f", r.Derived.SignOverStdlib), "", "")
	t.AddRow("derived: sign speedup over the hedged nonce",
		fmt.Sprintf("%.1fx", r.Derived.SignSpeedupX), "", "")
	comb := "n/a (no 8-lane comb)"
	if r.Lanes {
		comb = fmt.Sprintf("%.2f", r.CombOverECDH())
	}
	t.AddRow("derived: sign with k·G on the comb / through crypto/ecdh", comb, "", "")
	t.AddRow("derived: marshal allocs reduction",
		fmt.Sprintf("%.1fx", r.Derived.MarshalAllocsReductionX), "", "")
	return t
}

// FigHotpath runs the suite and renders its table.
func FigHotpath(e *Env, opts Options) (*Table, error) {
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

// The wall-time gates are quotients of the ratio rows, which hold on any
// host, where absolute ns do not. A recurring key must verify in at most 0.6
// of crypto/ecdsa's time (here 0.25); a block's signatures verified range by
// range must cost at most 0.80 of that each (here 0.5-0.6: the shared
// inversions of fabcrypto's affineLevelMin and pipeline's range cap at
// work); where the CPU has the 8-lane kernel, such a range must cost at
// most 0.65 of the same range on the scalar levels (here 0.47-0.52: the
// lanes add a level's pairs about 2.5 times as cheaply, and put more
// levels in affine coordinates; 0.65 is the 1.3 times headroom the batch
// gate leaves over its 0.6); and so must the same block through the BMac
// block processor, at most
// 0.85 (here 0.6 on one CPU, 0.4-0.5 on two: its rounds are those batches on
// up to eight goroutines, plus the FIFOs, the scheduling and mvcc; it was
// 1.11 and 0.63 while every request was a batch of one, so the limit bites on
// a one-CPU host); a key seen once may pay at most 10% for being looked up and
// counted, taken as the median of the per-round quotients, because both rows
// are crypto/ecdsa verifications whose totals' quotient read 0.82-1.31 over
// full runs here where the median reads 0.95-0.99; a vscc range's digests as
// VSCC hashes them may cost at most 0.80 of one stream per message where the
// CPU has the 16-lane SHA-256 kernel (here 0.55-0.64: 1.25 times headroom
// over the highest); and a table build may cost at most
// 1.5 × PromoteAfter + 1 crypto/ecdsa verifications (here 12-14): rent-or-buy
// promotes once the rent paid is about the price, which keeps the worst case
// near twice the optimum, and a build that has grown half again past the
// rent no longer does.
//
// The BMac sender locates identity fields by walking the envelope: encoding
// a block must not depend on how many identities are registered (64 against
// the default network's 6 measured 0.92-1.03; the substring sweep it
// replaced measured 13), and a 100-tx EncodeBlock may cost at most 50 of
// the suite's 16-tx block.Marshal, twice the 14-28 measured here (the sweep:
// over 100).
//
// Signing with the RFC 6979 nonce must cost at most 0.90 of crypto/ecdsa's
// hedged signer, whose per-signature HMAC-SHA-512 DRBG over fresh entropy
// is what it saves: 0.5-0.8 measured on two CPUs, where a SignDigest put
// back on the hedged path reads 0.95-1.07. And fabcrypto's signer must cost
// at most 0.75 of crypto/ecdsa's RFC 6979 signer, which gives the same
// signatures: what it saves is the constant-time n − 2 chain for k⁻¹ (the
// blinded safegcd instead), and the DRBG's and the key's allocations on
// every call; with k·G through crypto/ecdh, as without the lanes, that read
// 0.61-0.79 here (ecdsa_sign_ecdh over ecdsa_sign_stdlib), and SignDigest
// put back on crypto/ecdsa 1.01-1.02. Where the CPU has the lanes, k·G is
// the 8-lane comb, and the signer must cost at most 0.50 of crypto/ecdsa's
// RFC 6979 signer, taken as the median of the per-round quotients, since
// the standard library's row swings between runs far more than
// fabcrypto's (0.40-0.49 in full runs here; 60 quick runs read 0.40-0.52
// as the median, one of them above the limit, and 0.39-0.52 as the
// quotient of the totals, three above)
// and at most 0.85 of itself with k·G through crypto/ecdh, the two measured
// interleaved (0.57-0.75 in quick runs, median 0.68, and 0.60-0.65 in full
// ones: 0.85 is about 1.3 times the full runs' and 1.25 times the quick
// runs' median).
const (
	maxTableOverStdlib     = 0.6
	maxBatchOverTable      = 0.80
	maxLanesOverScalar     = 0.65
	maxBMacOverTable       = 0.85
	maxSingleUseOverStdlib = 1.10
	maxHashLanesOverOne    = 0.80
	maxBuildVerifies       = 1.5*fabcrypto.PromoteAfter + 1
	maxEncode64Over6IDs    = 1.25
	maxEncodeOverMarshal   = 50
	maxSignOverHedged      = 0.90
	maxSignOverStdlib      = 0.75
	maxCombOverStdlib      = 0.50
	maxSignOverECDH        = 0.85
)

// CombOverECDH is ecdsa_sign ÷ ecdsa_sign_ecdh: what the lanes' comb for
// k·G leaves of a signature with k·G through crypto/ecdh.
func (r *HotpathRecord) CombOverECDH() float64 {
	return r.Benchmarks["ecdsa_sign"].NsPerOp / r.Benchmarks["ecdsa_sign_ecdh"].NsPerOp
}

// HashLanesOverOne is sha256_range_lanes ÷ sha256_range: what HashBatch
// leaves of a vscc range's hashing one message at a time.
func (r *HotpathRecord) HashLanesOverOne() float64 {
	return r.Benchmarks["sha256_range_lanes"].NsPerOp / r.Benchmarks["sha256_range"].NsPerOp
}

// LanesOverScalar is ecdsa_verify_batch ÷ ecdsa_verify_batch_scalar: what
// the 8-lane kernel leaves of a range's price on the scalar levels.
func (r *HotpathRecord) LanesOverScalar() float64 {
	return r.Benchmarks["ecdsa_verify_batch"].NsPerOp / r.Benchmarks["ecdsa_verify_batch_scalar"].NsPerOp
}

// Gate compares the record's allocs/op against a committed baseline with
// relative tolerance tol (e.g. 0.25 = +25%) plus a small absolute slack, and
// the record's own within-run ratios against the limits above, returning
// an error listing every regression. Absolute wall time is NOT gated.
func (r *HotpathRecord) Gate(baseline *HotpathRecord, tol float64) error {
	const slack = 8 // absolute allocs/op headroom for runtime noise
	var regressions []string
	stdlib := r.Benchmarks["ecdsa_verify_stdlib"].NsPerOp
	type limit struct {
		what       string
		value, max float64
	}
	limits := []limit{
		{"ecdsa_verify_table / ecdsa_verify_stdlib", r.Benchmarks["ecdsa_verify_table"].NsPerOp / stdlib, maxTableOverStdlib},
		{"ecdsa_verify_batch / ecdsa_verify_table", r.Benchmarks["ecdsa_verify_batch"].NsPerOp / r.Benchmarks["ecdsa_verify_table"].NsPerOp, maxBatchOverTable},
		{"bmac_validate_block / ecdsa_verify_table", r.Benchmarks["bmac_validate_block"].NsPerOp / r.Benchmarks["ecdsa_verify_table"].NsPerOp, maxBMacOverTable},
		{"ecdsa_verify_single_use_key / ecdsa_verify_stdlib (median of rounds)", r.Derived.SingleUseOverStdlib, maxSingleUseOverStdlib},
		{"key_table_build_verifies_x", r.Derived.KeyTableBuildVerifiesX, maxBuildVerifies},
		{"bmac_encode_block_64ids / bmac_encode_block", r.Benchmarks["bmac_encode_block_64ids"].NsPerOp / r.Benchmarks["bmac_encode_block"].NsPerOp, maxEncode64Over6IDs},
		{"bmac_encode_block / marshal_block", r.Benchmarks["bmac_encode_block"].NsPerOp / r.Benchmarks["marshal_block"].NsPerOp, maxEncodeOverMarshal},
		{"ecdsa_sign / ecdsa_sign_hedged", r.Benchmarks["ecdsa_sign"].NsPerOp / r.Benchmarks["ecdsa_sign_hedged"].NsPerOp, maxSignOverHedged},
	}
	signOverStdlib := limit{"ecdsa_sign / ecdsa_sign_stdlib (median of rounds)", r.Derived.SignOverStdlib, maxSignOverStdlib}
	if r.Lanes { // without the lanes both batch rows run the scalar levels, and both sign rows crypto/ecdh
		signOverStdlib.max = maxCombOverStdlib
		limits = append(limits,
			limit{"ecdsa_verify_batch / ecdsa_verify_batch_scalar", r.LanesOverScalar(), maxLanesOverScalar},
			limit{"ecdsa_sign / ecdsa_sign_ecdh", r.CombOverECDH(), maxSignOverECDH})
	}
	limits = append(limits, signOverStdlib)
	if r.HashLanes { // without them both rows hash one message at a time
		limits = append(limits, limit{"sha256_range_lanes / sha256_range", r.HashLanesOverOne(), maxHashLanesOverOne})
	}
	for _, l := range limits {
		if !(l.value > 0 && l.value <= l.max) { // also catches a missing row (NaN, Inf)
			regressions = append(regressions, fmt.Sprintf("%s = %.2f, limit %.2f", l.what, l.value, l.max))
		}
	}
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
