package pipeline

import (
	"bytes"
	"math/rand"
	"testing"

	"bmac/internal/fabcrypto"
	"bmac/internal/statedb"
	"bmac/internal/validator"
	"bmac/internal/wire"
)

// hotpathToggle is one on/off combination of the commit hot-path
// optimizations under differential test.
type hotpathToggle struct {
	name        string
	sigCache    bool
	certCache   bool
	parseCache  bool
	marshalPool bool
}

func hotpathToggles() []hotpathToggle {
	return []hotpathToggle{
		{name: "all-off", marshalPool: false},
		{name: "sigcache", sigCache: true, marshalPool: true},
		{name: "certcache", certCache: true, marshalPool: true},
		{name: "sigcache-nopool", sigCache: true},
		{name: "parseonce", parseCache: true},
		{name: "pool-only", marshalPool: true},
		{name: "all-on", sigCache: true, certCache: true, parseCache: true, marshalPool: true},
	}
}

// TestHotpathDifferentialToggles validates the same random fault-injected
// chains with every hot-path optimization independently toggled on and off,
// through BOTH engine shapes, and demands bit-identical validation flags,
// commit hashes and final state versus the oracle. Run with -race: the
// caches and the marshal pool are shared across the engine's goroutines.
func TestHotpathDifferentialToggles(t *testing.T) {
	defer wire.SetBufferPooling(true)
	r := newRig(t)
	rng := rand.New(rand.NewSource(99))
	raws := buildRandomBlocks(t, r, rng, 6)

	// Reference: the oracle, no optimizations.
	wire.SetBufferPooling(false)
	wants, refSnap := oracleChain(t, r, raws)

	for _, tog := range hotpathToggles() {
		t.Run(tog.name, func(t *testing.T) {
			wire.SetBufferPooling(tog.marshalPool)
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

			// The Fabric v1.4 shape first, then the default shape sharing
			// the same caches: the first pass pre-warms them, so the second
			// exercises the cross-path hit case.
			var sigHits, parseHits [2]int
			for k, sh := range shapes {
				store := statedb.NewStore()
				eng := New(Config{
					Shape: sh.shape, Workers: 2 + k, Policies: r.pols, SkipLedger: true,
					SigCache: sc, CertCache: cc, ParseCache: pc,
				}, store, nil)
				for n, raw := range raws {
					res, err := eng.ValidateAndCommit(raw)
					if err != nil {
						t.Fatalf("%s block %d: %v", sh.name, n, err)
					}
					checkSame(t, sh.name, n, res.Flags, res.CommitHash, wants[n].flags, wants[n].commit)
					sigHits[k] += res.Breakdown.SigCacheHits
					parseHits[k] += res.Breakdown.ParseCacheHits
				}
				eng.Close()
				if !statedb.SnapshotsEqual(store.Snapshot(), refSnap) {
					t.Fatalf("%s final state diverged", sh.name)
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
		Shape: Fabric14, Workers: 2, Policies: r.pols, SkipLedger: true, SigCache: sc,
	}, statedb.NewStore(), nil)
	for _, raw := range raws {
		if _, err := v.ValidateAndCommit(raw); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: a fresh validator (fresh store) sharing the cache.
	v2 := New(Config{
		Shape: Fabric14, Workers: 2, Policies: r.pols, SkipLedger: true, SigCache: sc,
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
