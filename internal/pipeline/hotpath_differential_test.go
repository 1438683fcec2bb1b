package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// hotpathToggle is one on/off combination of the commit hot-path
// optimizations under differential test.
type hotpathToggle struct {
	name       string
	sigCache   bool
	certCache  bool
	parseCache bool
}

func hotpathToggles() []hotpathToggle {
	return []hotpathToggle{
		{name: "all-off"},
		{name: "sigcache", sigCache: true},
		{name: "certcache", certCache: true},
		{name: "parseonce", parseCache: true},
		{name: "all-on", sigCache: true, certCache: true, parseCache: true},
	}
}

// TestHotpathDifferentialToggles validates the same random fault-injected
// chains with every hot-path optimization independently toggled on and off,
// through both engine variants, and demands bit-identical validation flags,
// commit hashes and final state versus the oracle. Run with -race: the
// caches are shared across the engine's goroutines.
func TestHotpathDifferentialToggles(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(99))
	raws := buildRandomBlocks(t, r, rng, 6)

	// Reference: the oracle, no optimizations.
	wants, refSnap := oracleChain(t, r, raws)

	for _, tog := range hotpathToggles() {
		t.Run(tog.name, func(t *testing.T) {
			var sc *fabcrypto.SigCache
			var cc *fabcrypto.CertCache
			var pc *validator.ParseCache
			if tog.sigCache {
				sc = fabcrypto.NewSigCache(4096)
			}
			if tog.certCache {
				cc = fabcrypto.NewCertCache(512)
			}
			if tog.parseCache {
				pc = validator.NewParseCache(1024)
			}

			// One engine, then a second sharing the same caches: the first
			// pass pre-warms them, so the second exercises the cross-path
			// hit case.
			var sigHits, parseHits [2]int
			for k, v := range variants {
				store := v.store()
				eng := New(Config{
					Workers: 2 + k, Policies: r.pols, Members: r.members,
					SigCache: sc, CertCache: cc, ParseCache: pc,
				}, store, nil)
				for n, raw := range raws {
					res, err := eng.ValidateAndCommit(raw)
					if err != nil {
						t.Fatalf("%s block %d: %v", v.name, n, err)
					}
					checkSame(t, v.name, n, res.Flags, res.CommitHash, wants[n].flags, wants[n].commit)
					sigHits[k] += res.Breakdown.SigCacheHits
					parseHits[k] += res.Breakdown.ParseCacheHits
				}
				eng.Close()
				if !statedb.SnapshotsEqual(store.Snapshot(), refSnap) {
					t.Fatalf("%s final state diverged", v.name)
				}
			}

			// The second pass over shared caches must actually hit: the
			// speedup claim depends on it, so pin it here.
			if tog.sigCache && sigHits[1] == 0 {
				t.Fatal("sig cache shared across paths never hit")
			}
			if !tog.sigCache && sigHits != [2]int{} {
				t.Fatalf("sig cache hits without a cache: %v", sigHits)
			}
			if tog.parseCache && parseHits[1] == 0 {
				t.Fatal("parse cache shared across paths never hit")
			}
			if !tog.parseCache && parseHits != [2]int{} {
				t.Fatalf("parse cache hits without a cache: %v", parseHits)
			}
		})
	}
}

func checkSame(t *testing.T, path string, n int, flags, commit, wantFlags, wantCommit []byte) {
	t.Helper()
	if !bytes.Equal(flags, wantFlags) {
		t.Fatalf("%s block %d: flags %v != baseline %v", path, n, flags, wantFlags)
	}
	if !bytes.Equal(commit, wantCommit) {
		t.Fatalf("%s block %d: commit hash diverged", path, n)
	}
}

// TestHotpathSigCacheSteadyState pins the headline behavior the benchmark
// record claims: re-validating a block whose signatures are already cached
// performs zero real ECDSA verifications — every check is a cache hit.
func TestHotpathSigCacheSteadyState(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(7))
	raws := buildRandomBlocks(t, r, rng, 2)

	sc := fabcrypto.NewSigCache(4096)
	v := New(Config{
		Workers: 2, Policies: r.pols, Members: r.members, SigCache: sc,
	}, statedb.NewStore(), nil)
	for _, raw := range raws {
		if _, err := v.ValidateAndCommit(raw); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: a fresh validator (fresh store) sharing the cache.
	v2 := New(Config{
		Workers: 2, Policies: r.pols, Members: r.members, SigCache: sc,
	}, statedb.NewStore(), nil)
	for n, raw := range raws {
		res, err := v2.ValidateAndCommit(raw)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.ECDSACount != 0 {
			t.Fatalf("block %d: %d real verifies at steady state (want 0, %d hits)",
				n, res.Breakdown.ECDSACount, res.Breakdown.SigCacheHits)
		}
		if res.Breakdown.SigCacheHits == 0 {
			t.Fatalf("block %d: no cache hits at steady state", n)
		}
	}
	if hr := sc.HitRate(); hr < 0.4 {
		t.Fatalf("hit rate %.2f, want >= 0.4 after a full repeat", hr)
	}
}

// TestSharedSigCacheUnderRanges measures, rather than assumes, what two
// engines — one worker and four — validating the same block at the same
// time through one SigCache cost now that each looks a whole range up
// before either stores it: the verdicts are equal and
// the oracle's, and together they compute no more signatures than two
// engines without a cache would (2 × 301 for this block). How many they did
// compute is logged — the duplicate curve work a shared cache no longer
// prevents inside a range. Not shortened by -short: it runs in the race shard.
func TestSharedSigCacheUnderRanges(t *testing.T) {
	r := newRig(t)
	rws := make([]block.RWSet, 100)
	for i := range rws {
		rws[i] = block.RWSet{Writes: []block.KVWrite{w("k"+strconv.Itoa(i), "v")}}
	}
	raw := block.Marshal(r.makeBlock(t, 0, rws))
	wants, _ := oracleChain(t, r, [][]byte{raw})
	const perEngine = 1 + 3*100 // the orderer's signature, then client + 2 endorsers per transaction

	sc := fabcrypto.NewSigCache(4096)
	workers := [2]int{1, 4}
	var res [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for k := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := New(Config{Workers: workers[k], Policies: r.pols, Members: r.members, SigCache: sc}, statedb.NewStore(), nil)
			defer eng.Close()
			res[k], errs[k] = eng.ValidateAndCommit(raw)
		}()
	}
	wg.Wait()
	computed := 0
	for k := range res {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		label := strconv.Itoa(workers[k]) + " workers"
		checkSame(t, label, 0, res[k].Flags, res[k].CommitHash, wants[0].flags, wants[0].commit)
		bd := res[k].Breakdown
		if bd.ECDSACount+bd.SigCacheHits != perEngine {
			t.Fatalf("%s: %d computed + %d hits, want %d checks", label, bd.ECDSACount, bd.SigCacheHits, perEngine)
		}
		computed += bd.ECDSACount
	}
	if computed < perEngine || computed > 2*perEngine {
		t.Fatalf("%d signatures computed by two engines sharing a cache, want %d..%d", computed, perEngine, 2*perEngine)
	}
	t.Logf("two engines, one cache, one 100-tx block: %d signatures computed (%d once each, %d with caching off)", computed, perEngine, 2*perEngine)
}

// TestExtraDERElementMatchesOracle: a valid (r, s) with a third element
// inside its SEQUENCE, on a client signature and on one endorsement of a
// 2of2 transaction, is decided as the oracle — crypto/ecdsa.VerifyASN1 —
// decides it, at every worker count, with the signature cache off and on.
func TestExtraDERElementMatchesOracle(t *testing.T) {
	r := newRig(t)
	extra := func(sig []byte) []byte {
		return append(append([]byte{0x30, sig[1] + 3}, sig[2:]...), 0x02, 0x01, 0x00)
	}
	envs := r.makeBlock(t, 0, []block.RWSet{{Writes: []block.KVWrite{w("a", "1")}}, {Writes: []block.KVWrite{w("b", "1")}}, {Writes: []block.KVWrite{w("c", "1")}}}).Envelopes
	envs[0].Signature = extra(envs[0].Signature)
	tx, err := block.UnmarshalTransactionPayload(envs[1].PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	ends := slices.Clone(tx.Payload.Action.Endorsements)
	ends[1].Signature = extra(ends[1].Signature)
	env, err := block.NewEnvelopeFromResponses(block.AssembleSpec{
		Creator: r.client, Chaincode: "smallbank", Channel: "ch1", Nonce: tx.SignatureHeader.Nonce,
		PRPBytes: tx.Payload.Action.ProposalResponseBytes, Endorsers: ends,
	})
	if err != nil {
		t.Fatal(err)
	}
	envs[1] = *env
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	raws := [][]byte{block.Marshal(b)}
	wants, wantState := oracleChain(t, r, raws)
	if want := []byte{byte(block.BadSignature), byte(block.EndorsementPolicyFailure), byte(block.Valid)}; !bytes.Equal(wants[0].flags, want) {
		t.Fatalf("oracle flags %v, want %v", wants[0].flags, want)
	}
	for _, workers := range workerCounts {
		for _, sc := range []*fabcrypto.SigCache{nil, fabcrypto.NewSigCache(64)} {
			eng := New(Config{Workers: workers, Policies: r.pols, Members: r.members, SigCache: sc}, statedb.NewStore(), nil)
			checkChain(t, fmt.Sprintf("workers %d cache %v", workers, sc != nil), eng, raws, wants, wantState)
		}
	}
}

// TestBadClientSignatureStillVerifiesEndorsements pins the one semantic
// change of range-wise vscc: the checks of a range are queued before any
// verdict is known, so a transaction whose client signature is bad has its
// endorsements verified anyway. Only the work differs — flags, commit hash
// and state are the naive oracle's, which stops at the client signature.
func TestBadClientSignatureStillVerifiesEndorsements(t *testing.T) {
	r := newRig(t)
	envs := make([]block.Envelope, 0, 5)
	for i := 0; i < 5; i++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: r.client, Chaincode: "smallbank", Channel: "ch1",
			RWSet:            block.RWSet{Writes: []block.KVWrite{w("k"+strconv.Itoa(i), "v")}},
			Endorsers:        r.peers[:2],
			CorruptClientSig: i == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	raw := block.Marshal(b)
	wants, wantState := oracleChain(t, r, [][]byte{raw})
	if wants[0].flags[2] != byte(block.BadSignature) || block.CountValid(wants[0].flags) != 4 {
		t.Fatalf("oracle flags %v", wants[0].flags)
	}
	for _, v := range variants {
		store := v.store()
		eng := New(Config{Workers: 2, Policies: r.pols, Members: r.members}, store, nil)
		res, err := eng.ValidateAndCommit(raw)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkSame(t, v.name, 0, res.Flags, res.CommitHash, wants[0].flags, wants[0].commit)
		if !bytes.Equal(b.Header.DataHash, block.DataHash(b.Envelopes)) || !statedb.SnapshotsEqual(store.Snapshot(), wantState) {
			t.Fatalf("%s: data hash or state diverged", v.name)
		}
		if got, want := res.Breakdown.ECDSACount, 1+3*5; got != want {
			t.Fatalf("%s: %d signatures computed, want %d: the bad transaction's two endorsements included", v.name, got, want)
		}
	}
}
