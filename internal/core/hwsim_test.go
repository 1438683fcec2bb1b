package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bmac/internal/bmacproto"
	"bmac/internal/hwsim"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// profiles describes fb's transactions as the timing simulator takes them:
// endorsers in arrival order, each endorsement's verdict and the client
// signature's as the ecdsa_engine gives them.
func (fb *fifoBlock) profiles() []hwsim.TxProfile {
	out := make([]hwsim.TxProfile, len(fb.txs))
	ends := fb.ends
	for i, tx := range fb.txs {
		p := hwsim.TxProfile{TxSigValid: tx.Verify.Execute(), Reads: tx.RdsetSize, Writes: tx.WrsetSize}
		for _, e := range ends[:tx.NumEnds] {
			p.Endorsers = append(p.Endorsers, e.EndorserID)
			p.EndorsementValid = append(p.EndorsementValid, e.Verify.Execute())
		}
		ends = ends[tx.NumEnds:]
		out[i] = p
	}
	return out
}

// TestSimulatorCountsWhatCoreVerified holds the timing simulator to the
// functional model: given each transaction's verdicts, hwsim.Simulate
// verifies and skips exactly the endorsements block_validate did, block by
// block, over the seeded random blocks of
// TestRoundsMatchPerTransactionReference, for each policy shape,
// architecture and short-circuit setting. The simulator models one installed
// chaincode and a valid orderer signature, so the chaincode the random
// blocks name besides smallbank is installed too and blocks with a bad
// orderer signature are left out.
func TestSimulatorCountsWhatCoreVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(20220729))
	wire := newWire(t, 4)
	archs := [][2]int{{1, 1}, {3, 2}, {8, 3}}
	var blockNum uint64
	compared := 0
	for _, polSrc := range []string{"1of1", "2of2", "2of3", "3of3", "Org1 & (Org2 | (Org3 & Org4))"} {
		pol := policytest.MustParse(polSrc)
		circuit := policy.Compile(pol)
		for ci := 0; ci < len(archs)*2; ci++ {
			cfg := Config{
				TxValidators: archs[ci/2][0], VSCCEngines: archs[ci/2][1], DisableShortCircuit: ci&1 != 0,
				Policies: map[string]*policy.Circuit{"smallbank": circuit, "notinstalled": circuit},
			}
			sim := hwsim.Config{TxValidators: cfg.TxValidators, VSCCEngines: cfg.VSCCEngines, DisableShortCircuit: cfg.DisableShortCircuit}
			name := fmt.Sprintf("%s/%s/sc=%v", polSrc, cfg, !cfg.DisableShortCircuit)
			bufs := bmacproto.NewBuffers()
			proc := New(cfg, bufs, statedb.NewHardwareKVS(8192))
			proc.Start()

			for _, nTxs := range []int{1 + rng.Intn(8), 40 + rng.Intn(20), 1 + rng.Intn(8)} {
				fb := wire.capture(t, randomFaultyBlock(t, rng, wire, blockNum, nTxs, pol.MaxEndorsements()))
				blockNum++
				if !fb.blk.Verify.Execute() {
					continue
				}
				for i := range fb.ends {
					if rng.Intn(24) == 0 {
						fb.ends[i].Verify.Malformed = true
					}
				}
				want := hwsim.Simulate(sim, circuit, fb.profiles())
				fb.feed(t, bufs, len(fb.txs))
				got, ok := proc.GetBlockData()
				if !ok {
					t.Fatalf("%s: processor stopped", name)
				}
				if got.Stats.EndsVerified != want.EndsVerified || got.Stats.EndsSkipped != want.EndsSkipped {
					t.Fatalf("%s block %d (%d txs): core verified/skipped %d/%d, simulator %d/%d",
						name, got.BlockNum, nTxs, got.Stats.EndsVerified, got.Stats.EndsSkipped, want.EndsVerified, want.EndsSkipped)
				}
				compared++
			}
			bufs.Close()
			proc.Wait()
		}
	}
	if compared < 60 {
		t.Fatalf("compared only %d blocks", compared)
	}
}
