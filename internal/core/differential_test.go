package core

import (
	"math/rand"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// TestRandomizedDifferential is a randomized differential test between the
// software validator and the BMac pipeline: many blocks with random
// mixtures of valid transactions, bad client signatures, bad endorsements,
// missing endorsements and mvcc conflicts, across several policies and
// architectures. Any divergence in flags or committed state fails.
func TestRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20220106))
	policies := []string{"1of1", "2of2", "2of3", "3of3"}
	archs := []Config{
		{TxValidators: 1, VSCCEngines: 1},
		{TxValidators: 3, VSCCEngines: 2},
		{TxValidators: 8, VSCCEngines: 3},
	}
	for _, polSrc := range policies {
		for _, arch := range archs {
			arch := arch
			pol := policytest.MustParse(polSrc)
			ends := pol.MaxEndorsements()
			arch.Policies = map[string]*policy.Circuit{"smallbank": policy.Compile(pol)}

			r := newRig(t, 4, polSrc, arch)
			sw := pipeline.New(pipeline.Config{
				Workers:  3,
				Policies: map[string]*policy.Policy{"smallbank": pol},
			}, statedb.NewStore(), nil)

			for blockNum := uint64(0); blockNum < 3; blockNum++ {
				nTxs := 1 + rng.Intn(8)
				specs := make([]block.TxSpec, 0, nTxs)
				for i := 0; i < nTxs; i++ {
					endorsers := make([]*identity.Identity, ends)
					copy(endorsers, r.peers[:ends])
					if rng.Intn(6) == 0 && ends > 1 {
						endorsers = endorsers[:ends-1] // missing endorsement
					}
					spec := block.TxSpec{
						Creator:   r.client,
						Chaincode: "smallbank",
						Channel:   "ch1",
						Endorsers: endorsers,
					}
					switch rng.Intn(5) {
					case 0:
						spec.CorruptClientSig = true
					case 1:
						spec.CorruptEndorsementIdx = 1 + rng.Intn(len(endorsers))
					}
					// Random rw sets; occasional deliberate conflicts via
					// shared "hot" keys within the block.
					key := "k" + string(rune('a'+rng.Intn(4)))
					if rng.Intn(2) == 0 {
						spec.RWSet.Reads = append(spec.RWSet.Reads,
							block.KVRead{Key: key})
					}
					spec.RWSet.Writes = append(spec.RWSet.Writes,
						block.KVWrite{Key: key, Value: []byte{byte(i)}})
					specs = append(specs, spec)
				}
				b := r.block(t, blockNum, specs)
				raw := block.Marshal(b)

				swRes, swErr := sw.ValidateAndCommit(raw)
				if _, err := r.sender.SendBlock(b); err != nil {
					t.Fatal(err)
				}
				hwRes, ok := r.proc.GetBlockData()
				if !ok {
					t.Fatal("hw pipeline stopped")
				}
				if swErr != nil {
					// Software rejected the whole block; hardware must too.
					if hwRes.BlockValid {
						t.Fatalf("policy %s arch %s block %d: sw rejected, hw accepted",
							polSrc, arch.String(), blockNum)
					}
					continue
				}
				if !block.FlagsEqual(swRes.Flags, hwRes.Flags) {
					t.Fatalf("policy %s arch %s block %d (%d txs): flags diverge\n  sw %v\n  hw %v",
						polSrc, arch.String(), blockNum, nTxs, swRes.Flags, hwRes.Flags)
				}
			}
			if !statedb.SnapshotsEqual(sw.Store().Snapshot(), r.proc.DB().Snapshot()) {
				t.Fatalf("policy %s arch %s: state diverged", polSrc, arch.String())
			}
		}
	}
}
