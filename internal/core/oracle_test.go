package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// fifoBlock is everything the protocol_processor wrote for one block.
type fifoBlock struct {
	blk    bmacproto.BlockEntry
	txs    []bmacproto.TxEntry
	ends   []bmacproto.EndsEntry
	reads  []bmacproto.ReadEntry
	writes []bmacproto.WriteEntry
}

func drain[T any](f *fifo.FIFO[T]) (out []T) {
	for v, ok := f.TryPop(); ok; v, ok = f.TryPop() {
		out = append(out, v)
	}
	return out
}

// capture sends b down the wire and takes its entries out of the FIFOs.
func (r *rig) capture(t testing.TB, b *block.Block) fifoBlock {
	t.Helper()
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	fb := fifoBlock{
		txs: drain(r.bufs.Tx), ends: drain(r.bufs.Ends),
		reads: drain(r.bufs.Rdset), writes: drain(r.bufs.Wrset),
	}
	blks := drain(r.bufs.Block)
	if len(blks) != 1 || len(fb.txs) != len(b.Envelopes) {
		t.Fatalf("captured %d block entries and %d of %d transactions", len(blks), len(fb.txs), len(b.Envelopes))
	}
	fb.blk = blks[0]
	return fb
}

// feed writes fb's first nTxs transactions to bufs in the receiver's order:
// the block entry, then each transaction's tx entry followed by its ends,
// reads and writes.
func (fb *fifoBlock) feed(t testing.TB, bufs *bmacproto.Buffers, nTxs int) {
	t.Helper()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(bufs.Block.Push(fb.blk))
	ends, reads, writes := fb.ends, fb.reads, fb.writes
	for _, tx := range fb.txs[:nTxs] {
		check(bufs.Tx.Push(tx))
		for _, e := range ends[:tx.NumEnds] {
			check(bufs.Ends.Push(e))
		}
		for _, rd := range reads[:tx.RdsetSize] {
			check(bufs.Rdset.Push(rd))
		}
		for _, w := range writes[:tx.WrsetSize] {
			check(bufs.Wrset.Push(w))
		}
		ends, reads, writes = ends[tx.NumEnds:], reads[tx.RdsetSize:], writes[tx.WrsetSize:]
	}
}

// txJob and txResult are what a tx_validator instance took and gave when
// block_validate handed it one transaction at a time.
type txJob struct {
	entry      bmacproto.TxEntry
	ends       []bmacproto.EndsEntry
	blockValid bool
}

type txResult struct {
	code          block.ValidationCode
	engineInvokes int // all ecdsa_engine uses by this transaction
	endsVerified  int // vscc endorsement verifications only
	endsSkipped   int
}

// referenceTxValidator is the tx_validator this package ran before it
// validated a block in rounds, kept as the oracle of the rounds: tx_verify
// then tx_vscc for one transaction by itself, every request one
// VerifyRequest.Execute. (It issued a tx_vscc batch on a goroutine per
// request; the verdicts are read in order either way.)
func referenceTxValidator(cfg Config, job txJob) txResult {
	var out txResult

	// tx_verify: skip when the block is already invalid (early abort).
	if !job.blockValid {
		out.code = block.InvalidOther
		out.endsSkipped = len(job.ends)
		return out
	}
	if job.entry.Malformed { // the payload did not decode: nothing to verify
		out.code = block.BadPayload
		return out
	}
	if job.entry.Verify.Pub == nil { // the creator's certificate did not parse
		out.code = block.BadCreator
		out.endsSkipped = len(job.ends)
		return out
	}
	out.engineInvokes++ // the tx_verify engine invocation
	if !job.entry.Verify.Execute() {
		out.code = block.BadSignature
		out.endsSkipped = len(job.ends)
		return out
	}

	// tx_vscc: endorsement verification + policy circuit.
	circuit, ok := cfg.Policies[job.entry.CCName]
	if !ok {
		out.code = block.InvalidOther
		out.endsSkipped = len(job.ends)
		return out
	}
	var rf policy.RegisterFile
	rf.Clear()
	idx := 0
	for idx < len(job.ends) {
		if !cfg.DisableShortCircuit {
			// Validity short-circuit: policy already satisfied.
			if circuit.Evaluate(&rf) {
				break
			}
			// Invalidity short-circuit: policy can never be satisfied.
			remaining := make([]identity.EncodedID, 0, len(job.ends)-idx)
			for _, e := range job.ends[idx:] {
				remaining = append(remaining, e.EndorserID)
			}
			if !circuit.CanStillSatisfy(&rf, remaining) {
				break
			}
		}
		// Issue a batch of up to VSCCEngines verifications — the
		// ends_scheduler keeping all engine instances busy.
		batch := job.ends[idx:min(idx+cfg.VSCCEngines, len(job.ends))]
		for i := range batch {
			out.endsVerified++
			out.engineInvokes++
			if batch[i].Verify.Execute() {
				rf.SetID(batch[i].EndorserID)
			}
		}
		idx += len(batch)
	}
	out.endsSkipped += len(job.ends) - idx

	if !circuit.Evaluate(&rf) {
		out.code = block.EndorsementPolicyFailure
	}
	return out
}

// referenceBlock validates fb one transaction after another on ref, a
// processor that was never started, and commits to ref's database.
func referenceBlock(ref *Processor, fb fifoBlock) Result {
	res := Result{BlockNum: fb.blk.BlockNum, BlockValid: fb.blk.Verify.Execute(), Flags: make([]byte, len(fb.txs))}
	res.Stats.EngineInvokes = 1 // block_verify
	written := map[string]bool{}
	ends, reads, writes := fb.ends, fb.reads, fb.writes
	for i, entry := range fb.txs {
		out := referenceTxValidator(ref.cfg, txJob{entry: entry, ends: ends[:entry.NumEnds], blockValid: res.BlockValid})
		res.Stats.EndsVerified += out.endsVerified
		res.Stats.EndsSkipped += out.endsSkipped
		res.Stats.EngineInvokes += out.engineInvokes
		tx := txState{code: out.code, reads: reads[:entry.RdsetSize], writes: writes[:entry.WrsetSize]}
		ends, reads, writes = ends[entry.NumEnds:], reads[entry.RdsetSize:], writes[entry.WrsetSize:]
		ref.mvccCommitOne(&tx, block.Version{BlockNum: res.BlockNum, TxNum: uint64(i)}, written)
		res.Flags[i] = byte(tx.code)
	}
	return res
}

// TestRoundsMatchPerTransactionReference holds block_validate's rounds to the
// per-transaction tx_validator they replaced: over seeded random blocks with
// every kind of fault, each policy shape, architecture and ablation, the
// flags, the three engine counters and the committed state are the same. One
// block per configuration is longer than a full batch, so its rounds are cut
// into ranges and run on several goroutines.
func TestRoundsMatchPerTransactionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20220729))
	wire := newWire(t, 4)
	archs := [][2]int{{1, 1}, {3, 2}, {8, 3}}
	var blockNum uint64
	for _, polSrc := range []string{"1of1", "2of2", "2of3", "3of3", "Org1 & (Org2 | (Org3 & Org4))"} {
		pol := policytest.MustParse(polSrc)
		maxEnds := pol.MaxEndorsements()
		for ci := 0; ci < len(archs)*2; ci++ {
			cfg := Config{
				TxValidators: archs[ci/2][0], VSCCEngines: archs[ci/2][1],
				DisableShortCircuit: ci&1 != 0,
				Policies:            map[string]*policy.Circuit{"smallbank": policy.Compile(pol)},
			}
			name := fmt.Sprintf("%s/%s/sc=%v", polSrc, cfg, !cfg.DisableShortCircuit)
			bufs := bmacproto.NewBuffers()
			proc := New(cfg, bufs, statedb.NewHardwareKVS(8192))
			proc.Start()
			ref := New(cfg, nil, statedb.NewHardwareKVS(8192))

			for _, nTxs := range []int{1 + rng.Intn(8), 40 + rng.Intn(20), 1 + rng.Intn(8)} {
				fb := wire.capture(t, randomFaultyBlock(t, rng, wire, blockNum, nTxs, maxEnds))
				blockNum++
				for i := range fb.txs { // requests the receiver could not construct
					if rng.Intn(12) == 0 {
						fb.txs[i].Verify.Malformed = true
					}
				}
				for i := range fb.ends {
					switch rng.Intn(24) {
					case 0:
						fb.ends[i].Verify.Malformed = true
					case 1:
						fb.ends[i].Verify.Pub = nil
					}
				}
				want := referenceBlock(ref, fb)
				fb.feed(t, bufs, len(fb.txs))
				got, ok := proc.GetBlockData()
				if !ok {
					t.Fatalf("%s: processor stopped", name)
				}
				if got.BlockNum != want.BlockNum || got.BlockValid != want.BlockValid || !block.FlagsEqual(got.Flags, want.Flags) {
					t.Fatalf("%s block %d (%d txs, valid %v/%v): flags diverge\n  rounds    %v\n  reference %v",
						name, got.BlockNum, nTxs, got.BlockValid, want.BlockValid, got.Flags, want.Flags)
				}
				g, w := got.Stats, want.Stats
				if g.EndsVerified != w.EndsVerified || g.EndsSkipped != w.EndsSkipped || g.EngineInvokes != w.EngineInvokes {
					t.Fatalf("%s block %d (%d txs): verified/skipped/invokes %d/%d/%d, reference %d/%d/%d",
						name, got.BlockNum, nTxs, g.EndsVerified, g.EndsSkipped, g.EngineInvokes, w.EndsVerified, w.EndsSkipped, w.EngineInvokes)
				}
			}
			bufs.Close()
			proc.Wait()
			if !statedb.SnapshotsEqual(proc.DB().Snapshot(), ref.DB().Snapshot()) {
				t.Fatalf("%s: state diverged", name)
			}
		}
	}
}

// randomFaultyBlock builds a block of nTxs transactions over a few hot keys
// with, at random, a corrupt client signature, a corrupt or a missing
// endorsement, an unknown chaincode, endorsers in any order and, for the
// whole block, a corrupt orderer signature.
func randomFaultyBlock(t testing.TB, rng *rand.Rand, r *rig, num uint64, nTxs, maxEnds int) *block.Block {
	t.Helper()
	specs := make([]block.TxSpec, nTxs)
	for i := range specs {
		endorsers := append([]*identity.Identity(nil), r.peers[:maxEnds]...)
		rng.Shuffle(len(endorsers), func(a, b int) { endorsers[a], endorsers[b] = endorsers[b], endorsers[a] })
		if rng.Intn(6) == 0 && maxEnds > 1 {
			endorsers = endorsers[:maxEnds-1] // missing endorsement
		}
		key := "k" + string(rune('a'+rng.Intn(6)))
		spec := r.spec(endorsers, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte{byte(i)}}}})
		if rng.Intn(2) == 0 {
			spec.RWSet.Reads = []block.KVRead{{Key: key}}
		}
		switch rng.Intn(8) {
		case 0:
			spec.CorruptClientSig = true
		case 1, 2:
			spec.CorruptEndorsementIdx = 1 + rng.Intn(len(endorsers))
		case 3:
			spec.Chaincode = "notinstalled"
		}
		specs[i] = spec
	}
	b := r.block(t, num, specs)
	if rng.Intn(5) == 0 {
		b.Metadata.Signature.Signature[8] ^= 0xff
	}
	return b
}

// TestBlockCutShortHasNoResult: when the FIFOs close before a block's last
// transaction has arrived, the block produces no result — not one whose
// unseen transactions carry the zero flag, Valid — and the pipeline drains.
func TestBlockCutShortHasNoResult(t *testing.T) {
	wire := newWire(t, 2)
	ends := []*identity.Identity{wire.peers[0], wire.peers[1]}
	cfg := Config{TxValidators: 3, VSCCEngines: 2, Policies: map[string]*policy.Circuit{
		"smallbank": policy.Compile(policytest.MustParse("2of2")),
	}}
	bufs := bmacproto.NewBuffers()
	proc := New(cfg, bufs, statedb.NewHardwareKVS(64))
	proc.Start()

	var blocks []fifoBlock
	for num := uint64(0); num < 2; num++ {
		specs := make([]block.TxSpec, 5)
		for i := range specs {
			specs[i] = wire.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: fmt.Sprint("k", num, i), Value: []byte{1}}}})
		}
		blocks = append(blocks, wire.capture(t, wire.block(t, num, specs)))
	}
	blocks[0].feed(t, bufs, 5)
	blocks[1].feed(t, bufs, 3) // k = 3 of n = 5
	bufs.Close()

	res, ok := proc.GetBlockData()
	if !ok || res.BlockNum != 0 || block.CountValid(res.Flags) != 5 {
		t.Fatalf("complete block: result %+v, ok %v", res, ok)
	}
	if res, ok := proc.GetBlockData(); ok {
		t.Fatalf("block cut short after 3 of 5 transactions produced a result: flags %v", res.Flags)
	}
	done := make(chan struct{})
	go func() {
		proc.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not drain after a block cut short")
	}
	if n := proc.DB().Len(); n != 5 {
		t.Errorf("hardware database holds %d keys, want the complete block's 5", n)
	}
}
