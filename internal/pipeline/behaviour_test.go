package pipeline

import (
	"errors"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/validator"
)

// specBlock builds a signed block of n transactions from per-index specs.
func (r *rig) specBlock(t testing.TB, num uint64, prev []byte, n int, spec func(i int) block.TxSpec) *block.Block {
	t.Helper()
	envs := make([]block.Envelope, 0, n)
	for i := 0; i < n; i++ {
		env, err := block.NewEndorsedEnvelope(spec(i))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(num, prev, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// txSpec is a smallbank transaction over rw endorsed by the given peers.
func (r *rig) txSpec(rw block.RWSet, endorsers ...*identity.Identity) block.TxSpec {
	return block.TxSpec{Creator: r.client, Chaincode: "smallbank", Channel: "ch1", RWSet: rw, Endorsers: endorsers}
}

// distinctWrites is the plain case: tx i writes its own key, endorsed by
// the first two orgs (satisfying the rig's 2of2 policy).
func (r *rig) distinctWrites(i int) block.TxSpec {
	return r.txSpec(block.RWSet{Writes: []block.KVWrite{{Key: "k" + string(rune('a'+i)), Value: []byte{byte(i)}}}},
		r.peers[0], r.peers[1])
}

func wantCodes(t *testing.T, flags []byte, want ...block.ValidationCode) {
	t.Helper()
	for i, w := range want {
		if got := block.ValidationCode(flags[i]); got != w {
			t.Errorf("tx %d flag = %v, want %v", i, got, w)
		}
	}
}

// TestEngineBehaviour is the per-block Fabric contract, one case per rule,
// run over each engine variant. mk builds a fresh engine of the variant
// under test over an empty store and a real ledger.
func TestEngineBehaviour(t *testing.T) {
	r := newRig(t)
	cases := []struct {
		name string
		run  func(t *testing.T, mk func(workers int) *Engine)
	}{
		{"all valid", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(4)
			res, err := eng.ValidateAndCommit(block.Marshal(r.specBlock(t, 0, nil, 5, r.distinctWrites)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.BlockValid || block.CountValid(res.Flags) != 5 {
				t.Errorf("valid=%v flags=%v", res.BlockValid, res.Flags)
			}
			if eng.Store().Len() != 5 {
				t.Errorf("state keys = %d, want 5", eng.Store().Len())
			}
			if len(res.CommitHash) == 0 {
				t.Error("no commit hash")
			}
			if res.Breakdown.ECDSACount != 1+5*3 { // orderer + 5*(client+2 ends)
				t.Errorf("ecdsa count = %d, want 16", res.Breakdown.ECDSACount)
			}
		}},
		{"bad client signature", func(t *testing.T, mk func(int) *Engine) {
			b := r.specBlock(t, 0, nil, 3, func(i int) block.TxSpec {
				s := r.distinctWrites(i)
				s.CorruptClientSig = i == 1
				return s
			})
			res, err := mk(2).ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCodes(t, res.Flags, block.Valid, block.BadSignature, block.Valid)
		}},
		{"bad endorsement fails policy", func(t *testing.T, mk func(int) *Engine) {
			b := r.specBlock(t, 0, nil, 2, func(i int) block.TxSpec {
				s := r.distinctWrites(i)
				if i == 0 {
					s.CorruptEndorsementIdx = 1 // first endorsement corrupt
				}
				return s
			})
			res, err := mk(2).ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCodes(t, res.Flags, block.EndorsementPolicyFailure, block.Valid)
		}},
		{"insufficient endorsements", func(t *testing.T, mk func(int) *Engine) {
			// Only one endorsement for a 2of2 policy.
			b := r.specBlock(t, 0, nil, 1, func(int) block.TxSpec { return r.txSpec(block.RWSet{}, r.peers[0]) })
			res, err := mk(2).ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCodes(t, res.Flags, block.EndorsementPolicyFailure)
		}},
		{"bad orderer signature rejects block", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(2)
			b := r.specBlock(t, 0, nil, 2, r.distinctWrites)
			b.Metadata.Signature.Signature[10] ^= 0xff
			if _, err := eng.ValidateAndCommit(block.Marshal(b)); !errors.Is(err, validator.ErrBlockInvalid) {
				t.Errorf("err = %v, want ErrBlockInvalid", err)
			}
			if eng.Store().Len() != 0 {
				t.Error("invalid block mutated state")
			}
		}},
		// One byte flipped inside an envelope after the block was built and
		// signed: the orderer signature still verifies (it covers only the
		// header), so only the DataHash recomputation can catch content
		// corrupted in flight. The whole block must be rejected without
		// touching state.
		{"tampered envelope rejects block", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(2)
			b := r.specBlock(t, 0, nil, 2, r.distinctWrites)
			b.Envelopes[1].Signature[4] ^= 0x40
			if _, err := eng.ValidateAndCommit(block.Marshal(b)); !errors.Is(err, validator.ErrBlockInvalid) {
				t.Errorf("err = %v, want ErrBlockInvalid", err)
			}
			if eng.Store().Len() != 0 {
				t.Error("tampered block mutated state")
			}
		}},
		{"mvcc conflict within block", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(2)
			// tx0 writes "hot"; tx1 reads "hot" at the pre-block version.
			b := r.specBlock(t, 0, nil, 2, func(i int) block.TxSpec {
				if i == 0 {
					return r.txSpec(block.RWSet{Writes: []block.KVWrite{w("hot", "1")}}, r.peers[0], r.peers[1])
				}
				return r.txSpec(block.RWSet{
					Reads:  []block.KVRead{{Key: "hot"}},
					Writes: []block.KVWrite{w("other", "2")},
				}, r.peers[0], r.peers[1])
			})
			res, err := eng.ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCodes(t, res.Flags, block.Valid, block.MVCCReadConflict)
			if _, err := eng.Store().Get("other"); err == nil {
				t.Error("conflicted transaction was committed")
			}
		}},
		{"mvcc stale read across blocks", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(2)
			// Block 0 writes k at version (0,0); block 1 reads it at a wrong
			// version; block 2 at the right one.
			var prev []byte
			for n, c := range []struct {
				read *block.Version
				want block.ValidationCode
			}{
				{nil, block.Valid},
				{&block.Version{BlockNum: 5, TxNum: 3}, block.MVCCReadConflict},
				{&block.Version{BlockNum: 0, TxNum: 0}, block.Valid},
			} {
				rw := block.RWSet{Writes: []block.KVWrite{w("k", string(rune('1'+n)))}}
				if c.read != nil {
					rw.Reads = []block.KVRead{{Key: "k", Version: *c.read}}
				}
				b := r.specBlock(t, uint64(n), prev, 1, func(int) block.TxSpec { return r.txSpec(rw, r.peers[0], r.peers[1]) })
				prev = block.HeaderHash(&b.Header)
				res, err := eng.ValidateAndCommit(block.Marshal(b))
				if err != nil {
					t.Fatal(err)
				}
				if got := block.ValidationCode(res.Flags[0]); got != c.want {
					t.Errorf("block %d flag = %v, want %v", n, got, c.want)
				}
			}
		}},
		{"unknown chaincode", func(t *testing.T, mk func(int) *Engine) {
			b := r.specBlock(t, 0, nil, 1, func(int) block.TxSpec {
				s := r.txSpec(block.RWSet{}, r.peers[0], r.peers[1])
				s.Chaincode = "unknowncc"
				return s
			})
			res, err := mk(1).ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			wantCodes(t, res.Flags, block.InvalidOther)
		}},
		{"worker count invariance", func(t *testing.T, mk func(int) *Engine) {
			// The same block must validate identically with 1 or 8 workers.
			raw := block.Marshal(r.specBlock(t, 0, nil, 9, func(i int) block.TxSpec {
				s := r.distinctWrites(i)
				s.CorruptClientSig = i%3 == 1
				return s
			}))
			r1, err := mk(1).ValidateAndCommit(raw)
			if err != nil {
				t.Fatal(err)
			}
			r8, err := mk(8).ValidateAndCommit(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !block.FlagsEqual(r1.Flags, r8.Flags) {
				t.Errorf("flags differ across worker counts: %v vs %v", r1.Flags, r8.Flags)
			}
			if string(r1.CommitHash) != string(r8.CommitHash) {
				t.Error("commit hashes differ across worker counts")
			}
		}},
		{"breakdown populated", func(t *testing.T, mk func(int) *Engine) {
			res, err := mk(2).ValidateAndCommit(block.Marshal(r.specBlock(t, 0, nil, 4, r.distinctWrites)))
			if err != nil {
				t.Fatal(err)
			}
			bd := res.Breakdown
			if bd.Unmarshal <= 0 || bd.VerifyVSCC <= 0 || bd.Total <= 0 {
				t.Errorf("breakdown not populated: %+v", bd)
			}
			// Four transactions of a client signature and two endorsements
			// under the block's one; a digest each, and the data hash.
			if bd.ECDSACount != 13 || bd.SHA256Count != 14 || bd.ECDSATime <= 0 || bd.SHA256Time <= 0 {
				t.Errorf("op counters: %d ecdsa in %v, %d sha256 in %v; want 13 and 14, both timed",
					bd.ECDSACount, bd.ECDSATime, bd.SHA256Count, bd.SHA256Time)
			}
		}},
		{"ledger chain across blocks", func(t *testing.T, mk func(int) *Engine) {
			eng := mk(2)
			b0 := r.specBlock(t, 0, nil, 1, r.distinctWrites)
			r0, err := eng.ValidateAndCommit(block.Marshal(b0))
			if err != nil {
				t.Fatal(err)
			}
			b1 := r.specBlock(t, 1, block.HeaderHash(&b0.Header), 1, r.distinctWrites)
			r1, err := eng.ValidateAndCommit(block.Marshal(b1))
			if err != nil {
				t.Fatal(err)
			}
			if want := block.CommitHash(r0.CommitHash, b1.Header.DataHash, r1.Flags); string(r1.CommitHash) != string(want) {
				t.Error("commit hash chain mismatch")
			}
		}},
	}
	for _, v := range variants {
		for _, c := range cases {
			t.Run(v.name+"/"+c.name, func(t *testing.T) {
				c.run(t, func(workers int) *Engine {
					led, err := ledger.Open(t.TempDir(), ledger.Options{})
					if err != nil {
						t.Fatal(err)
					}
					eng := New(Config{Workers: workers, Policies: r.pols, Members: r.members}, v.store(), led)
					t.Cleanup(func() {
						eng.Close()
						led.Close()
					})
					return eng
				})
			})
		}
	}
}
