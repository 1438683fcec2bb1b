package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"bmac/internal/block"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
)

// The hybrid experiment measures the paper's §5 database-scaling proposal
// in software: a small in-hardware LRU (HybridKVS) in front of a host
// store with a modeled PCIe/host read latency, driven by a smallbank-shaped
// workload whose account reads follow a Zipf power law. It sweeps cache
// capacity x skew and reports, for each point, the cache hit rate and the
// committed throughput with the commit engine's read-set prefetch off
// and on — quantifying how much of the throughput lost to host-read
// latency the prefetch stage recovers by hiding misses under vscc
// (the software analogue of Figure 12c's latency hiding).

// HybridSpec describes one hybrid-database measurement point.
type HybridSpec struct {
	Blocks          int
	Txs             int
	Endorsements    int
	Accounts        int     // host-resident account keys
	ReadsPerTx      int     // Zipf-drawn account reads per transaction
	Skew            float64 // power-law exponent (0 = uniform)
	Capacity        int     // in-hardware cache entries
	HostLatency     time.Duration
	Workers         int
	PrefetchWorkers int
	Seed            int64
}

// HybridPoint is one measured data point of the hybrid experiment.
type HybridPoint struct {
	MemoryTPS     float64 // plain in-memory store (no host latency): upper bound
	NoPrefetchTPS float64 // hybrid backend, prefetch off: latency fully exposed
	PrefetchTPS   float64 // hybrid backend, prefetch on: latency hidden under vscc
	HitRate       float64 // cache hit rate of the prefetch run
	Prefetched    int     // warm-up reads issued by the prefetch run
	// What the prefetch stage does, free of wall-clock time: the cache hit
	// rate without it, and the cache misses the validation path itself
	// waited for (host round trips served serially in mvcc) in either run.
	NoPrefetchHitRate float64
	NoPrefetchMisses  int
	DemandMisses      int
}

// Recovered reports the fraction of the throughput lost to host-read
// latency that the prefetch stage won back:
// (prefetch - noPrefetch) / (memory - noPrefetch), clamped to [0, 1].
func (p HybridPoint) Recovered() float64 {
	lost := p.MemoryTPS - p.NoPrefetchTPS
	if lost <= 0 {
		return 1 // nothing was lost to latency
	}
	r := (p.PrefetchTPS - p.NoPrefetchTPS) / lost
	return math.Min(math.Max(r, 0), 1)
}

// zipfPicker draws account ranks from a power law P(rank) ~ rank^-s. It
// supports any s >= 0 (math/rand's Zipf requires s > 1, but the paper-style
// skews of interest start below that).
type zipfPicker struct {
	cdf []float64
}

func newZipfPicker(n int, s float64) *zipfPicker {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfPicker{cdf: cdf}
}

func (z *zipfPicker) pick(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// makeHybridChain builds the workload: every transaction reads ReadsPerTx
// Zipf-drawn account keys (endorsed at the genesis version, and never
// written, so the chain is conflict-free) and writes one unique output key.
func (e *Env) makeHybridChain(spec HybridSpec) ([][]byte, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := newZipfPicker(spec.Accounts, spec.Skew)
	endorsers := e.Peers[:spec.Endorsements]
	out := 0
	raws := make([][]byte, 0, spec.Blocks)
	for n := 0; n < spec.Blocks; n++ {
		envs := make([]block.Envelope, 0, spec.Txs)
		for i := 0; i < spec.Txs; i++ {
			var rw block.RWSet
			for r := 0; r < spec.ReadsPerTx; r++ {
				rw.Reads = append(rw.Reads, block.KVRead{
					Key: "acct" + strconv.Itoa(zipf.pick(rng)),
				})
			}
			out++
			rw.Writes = append(rw.Writes, block.KVWrite{
				Key: "txout" + strconv.Itoa(out), Value: []byte("0123456789abcdef"),
			})
			env, err := block.NewEndorsedEnvelope(block.TxSpec{
				Creator:   e.Client,
				Chaincode: "smallbank",
				Channel:   "ch1",
				RWSet:     rw,
				Endorsers: endorsers,
			})
			if err != nil {
				return nil, err
			}
			envs = append(envs, *env)
		}
		b, err := block.NewBlock(uint64(n), nil, envs, e.Orderer)
		if err != nil {
			return nil, err
		}
		raws = append(raws, block.Marshal(b))
	}
	return raws, nil
}

// seedAccounts loads the genesis account state into a store.
func seedAccounts(kvs statedb.KVS, accounts int) {
	for i := 0; i < accounts; i++ {
		kvs.Put("acct"+strconv.Itoa(i), []byte("1000"), block.Version{})
	}
}

// MeasureHybrid runs one measurement point: the same chain through the
// commit engine, one block at a time, over (1) a plain in-memory store,
// (2) a hybrid backend with the modeled host latency and prefetch off,
// (3) the same with prefetch on. The three runs are cross-checked (flags and commit hashes
// must be bit-identical) while being timed.
func (e *Env) MeasureHybrid(spec HybridSpec) (HybridPoint, error) {
	raws, err := e.makeHybridChain(spec)
	if err != nil {
		return HybridPoint{}, err
	}
	pol, err := policy.Parse("2of2")
	if err != nil {
		return HybridPoint{}, err
	}
	pols := map[string]*policy.Policy{"smallbank": pol}
	totalTxs := spec.Blocks * spec.Txs

	var refFlags [][]byte
	var refHashes [][]byte
	// The engine prefetches over a store it can warm: the HybridKVS itself.
	run := func(kvs statedb.KVS) (float64, *pipeline.Engine, error) {
		eng := pipeline.New(pipeline.Config{
			Workers: spec.Workers, Policies: pols, PrefetchWorkers: spec.PrefetchWorkers,
			Members: e.Members,
		}, kvs, nil)
		start := time.Now()
		collectRef := refFlags == nil // first run records the reference verdicts
		for n, raw := range raws {
			res, err := eng.ValidateAndCommit(raw)
			switch {
			case err != nil:
			case block.CountValid(res.Flags) != spec.Txs:
				err = fmt.Errorf("hybrid experiment: block %d: %d/%d txs valid",
					n, block.CountValid(res.Flags), spec.Txs)
			case collectRef:
				refFlags = append(refFlags, res.Flags)
				refHashes = append(refHashes, res.CommitHash)
			case !block.FlagsEqual(res.Flags, refFlags[n]) || string(res.CommitHash) != string(refHashes[n]):
				err = fmt.Errorf("hybrid experiment: block %d diverged across backends", n)
			}
			if err != nil {
				eng.Close()
				return 0, nil, err
			}
		}
		return float64(totalTxs) / time.Since(start).Seconds(), eng, nil
	}

	// 0. Warm pass (unmeasured): earns the chain's keys their tables in the
	// verification engine, so no cold key cost falls on whichever run goes
	// first, and records the reference verdicts the measured runs are
	// cross-checked against.
	warm := statedb.NewStore()
	seedAccounts(warm, spec.Accounts)
	_, wEng, err := run(warm)
	if err != nil {
		return HybridPoint{}, err
	}
	wEng.Close()

	// 1. Plain in-memory store: the no-latency upper bound.
	mem := statedb.NewStore()
	seedAccounts(mem, spec.Accounts)
	memTPS, eng, err := run(mem)
	if err != nil {
		return HybridPoint{}, err
	}
	eng.Close()

	// 2. Hybrid backend, prefetch off: every cold miss stalls mvcc. Behind
	// the bare KVS interface the store offers no Warm, so the engine starts
	// no prefetcher.
	hostA := statedb.NewStore()
	seedAccounts(hostA, spec.Accounts)
	hyA := statedb.NewHybridKVS(spec.Capacity, hostA)
	hyA.SetHostReadLatency(spec.HostLatency)
	noTPS, eng, err := run(struct{ statedb.KVS }{hyA})
	if err != nil {
		return HybridPoint{}, err
	}
	eng.Close()

	// 3. Hybrid backend, prefetch on: misses absorbed while vscc runs.
	hostB := statedb.NewStore()
	seedAccounts(hostB, spec.Accounts)
	hyB := statedb.NewHybridKVS(spec.Capacity, hostB)
	hyB.SetHostReadLatency(spec.HostLatency)
	pfTPS, eng, err := run(hyB)
	if err != nil {
		return HybridPoint{}, err
	}
	prefetched := eng.PrefetchedKeys()
	eng.Close()

	return HybridPoint{
		MemoryTPS:         memTPS,
		NoPrefetchTPS:     noTPS,
		PrefetchTPS:       pfTPS,
		HitRate:           hyB.HitRate(),
		Prefetched:        prefetched,
		NoPrefetchHitRate: hyA.HitRate(),
		NoPrefetchMisses:  hyA.DemandMisses(),
		DemandMisses:      hyB.DemandMisses(),
	}, nil
}

// FigHybrid is the hybrid-database experiment: cache capacity x Zipf skew,
// reporting hit rate and throughput with the read-set prefetch off and on.
func FigHybrid(e *Env, opts Options) (*Table, error) {
	o := opts.withDefaults()
	spec := HybridSpec{
		Blocks: 8, Txs: 64, Endorsements: 2,
		Accounts: 1024, ReadsPerTx: 3,
		HostLatency:     400 * time.Microsecond,
		Workers:         4,
		PrefetchWorkers: 16,
	}
	capacities := []int{64, 512}
	skews := []float64{0, 0.9, 1.2}
	if o.Quick {
		spec.Blocks, spec.Txs = 3, 32
		spec.Accounts = 256
		spec.HostLatency = 150 * time.Microsecond
		capacities = []int{96}
		skews = []float64{0, 1.2}
	}
	t := &Table{Header: []string{
		"capacity", "skew", "hit%", "prefetched",
		"| memory tps", "no-prefetch tps", "prefetch tps", "recovered",
	}}
	for _, c := range capacities {
		for _, s := range skews {
			spec.Capacity = c
			spec.Skew = s
			spec.Seed = int64(c)*1000 + int64(s*100)
			pt, err := e.MeasureHybrid(spec)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				strconv.Itoa(c),
				fmt.Sprintf("%.1f", s),
				fmt.Sprintf("%.0f%%", pt.HitRate*100),
				strconv.Itoa(pt.Prefetched),
				FormatTPS(pt.MemoryTPS),
				FormatTPS(pt.NoPrefetchTPS),
				FormatTPS(pt.PrefetchTPS),
				fmt.Sprintf("%.0f%%", pt.Recovered()*100),
			)
		}
	}
	return t, nil
}
