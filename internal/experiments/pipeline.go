package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/metrics"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// ConflictChainSpec describes a chain of contended workload blocks for the
// pipeline experiment: every transaction writes `Writes` keys and reads
// `Reads` keys, and each access targets a per-block hot-key pool with
// probability HotProb (0 reproduces the conflict-free steady state of the
// paper's throughput experiments; higher values force read-after-write
// dependencies and mvcc aborts inside each block).
type ConflictChainSpec struct {
	Blocks       int
	Txs          int
	Endorsements int
	Reads        int
	Writes       int
	HotKeys      int
	HotProb      float64
	Seed         int64
}

// MakeConflictChain builds the chain deterministically from spec.Seed: the
// rng and the cold-key counter are both local to the call, so equal specs
// produce equal access patterns. Reads are endorsed at the zero version
// against a fresh state database, so a transaction conflicts exactly when
// an earlier valid transaction of the same block wrote one of its read
// keys.
func (e *Env) MakeConflictChain(spec ConflictChainSpec) ([]*block.Block, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	endorsers := e.Peers[:spec.Endorsements]
	blocks := make([]*block.Block, 0, spec.Blocks)
	keySeq := 0
	for n := 0; n < spec.Blocks; n++ {
		envs := make([]block.Envelope, 0, spec.Txs)
		hot := func() string {
			return "hot" + strconv.Itoa(n) + "/" + strconv.Itoa(rng.Intn(spec.HotKeys))
		}
		for i := 0; i < spec.Txs; i++ {
			var rw block.RWSet
			for r := 0; r < spec.Reads; r++ {
				key := ""
				if spec.HotKeys > 0 && rng.Float64() < spec.HotProb {
					key = hot()
				} else {
					keySeq++
					key = "cold" + strconv.Itoa(keySeq)
				}
				rw.Reads = append(rw.Reads, block.KVRead{Key: key})
			}
			for w := 0; w < spec.Writes; w++ {
				key := ""
				if spec.HotKeys > 0 && rng.Float64() < spec.HotProb {
					key = hot()
				} else {
					keySeq++
					key = "k" + strconv.Itoa(keySeq)
				}
				rw.Writes = append(rw.Writes, block.KVWrite{
					Key: key, Value: []byte("0123456789abcdef"),
				})
			}
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
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// PipelineComparison is one measured data point of the pipeline experiment.
type PipelineComparison struct {
	Sequential time.Duration // sum of per-block sequential validation time
	Parallel   time.Duration // wall time for the pipelined engine to drain
	Conflicts  int           // transactions flagged MVCC_READ_CONFLICT
	Edges      int           // dependency edges across all blocks
	Depth      int           // longest per-block critical path
	// SigCacheHitRate and ParseCacheHitRate report each engine's own
	// hot-path caches over all rounds (round 1 misses, later rounds hit;
	// both engines get their own caches so the speedup stays a fair
	// engine-vs-engine comparison).
	SeqSigCacheHitRate float64
	ParSigCacheHitRate float64
	ParParseHitRate    float64
}

// Speedup returns sequential time over parallel wall time.
func (p PipelineComparison) Speedup() float64 {
	if p.Parallel == 0 {
		return 0
	}
	return float64(p.Sequential) / float64(p.Parallel)
}

// MeasurePipeline validates the same block chain with the engine in its
// Fabric v1.4 shape, one block at a time, and in its default shape with
// blocks pipelined through Submit (both ledger-free, as the paper's metrics
// are) and cross-checks flags and commit hashes while measuring. Divergence
// is an error: the experiment doubles as a differential check.
func (e *Env) MeasurePipeline(spec ConflictChainSpec, pol string, workers, rounds int) (PipelineComparison, error) {
	if workers < 1 {
		// Same vscc thread budget for both engines: the comparison isolates
		// pipelining + dependency scheduling, not worker counts.
		workers = runtime.GOMAXPROCS(0)
	}
	blocks, err := e.MakeConflictChain(spec)
	if err != nil {
		return PipelineComparison{}, err
	}
	raws := make([][]byte, len(blocks))
	for i, b := range blocks {
		raws[i] = block.Marshal(b)
	}
	p, err := policy.Parse(pol)
	if err != nil {
		return PipelineComparison{}, fmt.Errorf("experiments: policy %q: %w", pol, err)
	}
	pols := map[string]*policy.Policy{"smallbank": p}

	// Per-engine hot-path caches, persistent across rounds: with rounds
	// > 1 the later rounds measure cache steady state, and the hit rates
	// land in the report so the speedup's provenance is visible.
	seqSC := fabcrypto.NewSigCache(1 << 15)
	seqPC := validator.NewParseCache(1 << 13)
	parSC := fabcrypto.NewSigCache(1 << 15)
	parPC := validator.NewParseCache(1 << 13)

	var out PipelineComparison
	for _, b := range blocks {
		var accs []pipeline.Access
		for i := range b.Envelopes {
			p := validator.ParseTx(b.Envelopes[i].PayloadBytes)
			accs = append(accs, pipeline.AccessOf(p.RW))
		}
		g := pipeline.BuildGraph(accs)
		out.Edges += g.Edges()
		if d := g.CriticalPath(); d > out.Depth {
			out.Depth = d
		}
	}

	for r := 0; r < rounds; r++ {
		sw := pipeline.New(pipeline.Config{
			Shape: pipeline.Fabric14, Workers: workers, Policies: pols, SkipLedger: true,
			SigCache: seqSC, ParseCache: seqPC,
		}, statedb.NewStore(), nil)
		swResults := make([]*validator.Result, len(raws))
		tSeq := time.Now()
		for i, raw := range raws {
			res, err := sw.ValidateAndCommit(raw)
			if err != nil {
				return PipelineComparison{}, err
			}
			swResults[i] = res
		}
		out.Sequential += time.Since(tSeq)
		sw.Close()

		eng := pipeline.New(pipeline.Config{
			Workers: workers, Policies: pols, SkipLedger: true,
			SigCache: parSC, ParseCache: parPC,
		}, statedb.NewStore(), nil)
		tPar := time.Now()
		measureErr := drainChain(eng, raws, func(i int, res *pipeline.Result) error {
			if !block.FlagsEqual(res.Flags, swResults[i].Flags) ||
				string(res.CommitHash) != string(swResults[i].CommitHash) {
				return fmt.Errorf("pipeline experiment: block %d diverged from sequential validator", i)
			}
			return nil
		})
		out.Parallel += time.Since(tPar)
		eng.Close()
		if measureErr != nil {
			return PipelineComparison{}, measureErr
		}

		if r == 0 {
			for _, res := range swResults {
				for _, f := range res.Flags {
					if block.ValidationCode(f) == block.MVCCReadConflict {
						out.Conflicts++
					}
				}
			}
		}
	}
	out.Sequential /= time.Duration(rounds)
	out.Parallel /= time.Duration(rounds)
	out.SeqSigCacheHitRate = seqSC.HitRate()
	out.ParSigCacheHitRate = parSC.HitRate()
	out.ParParseHitRate = parPC.HitRate()
	return out, nil
}

// drainChain submits raws to eng in order and hands each block's result to
// check, returning the first failure. Every outcome is drained even after a
// failure: the submitter and the engine's stage goroutines block on their
// channels otherwise.
func drainChain(eng *pipeline.Engine, raws [][]byte, check func(n int, res *pipeline.Result) error) error {
	go func() {
		for _, raw := range raws {
			eng.Submit(raw)
		}
	}()
	var firstErr error
	for n := range raws {
		o := <-eng.Results()
		switch {
		case firstErr != nil:
		case o.Err != nil:
			firstErr = o.Err
		default:
			firstErr = check(n, o.Res)
		}
	}
	return firstErr
}

// FigPipeline is the pipeline experiment: sequential-vs-parallel validation
// speedup across block sizes and conflict rates. It goes beyond the paper —
// this is the repo's first software step toward the roadmap's "as fast as
// the hardware allows" goal, following the dependency-scheduling recipe of
// Octopus-style parallel commit engines.
func FigPipeline(e *Env, opts Options) (*metrics.Table, error) {
	o := opts.withDefaults()
	blockSizes := []int{50, 150}
	hotProbs := []float64{0, 0.3, 0.7}
	blocks := 6
	if o.Quick {
		blockSizes = []int{30}
		hotProbs = []float64{0, 0.5}
		blocks = 3
	}
	t := &metrics.Table{Header: []string{
		"block", "hot%", "conflicts", "dep edges", "depth",
		"| sequential", "pipelined", "speedup", "sig$%", "parse$%",
	}}
	for _, bs := range blockSizes {
		for _, hp := range hotProbs {
			spec := ConflictChainSpec{
				Blocks: blocks, Txs: bs, Endorsements: 2,
				Reads: 2, Writes: 2,
				HotKeys: 8, HotProb: hp,
				Seed: int64(bs)*1000 + int64(hp*100),
			}
			cmp, err := e.MeasurePipeline(spec, "2of2", 0, o.Rounds)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				strconv.Itoa(bs),
				fmt.Sprintf("%.0f%%", hp*100),
				strconv.Itoa(cmp.Conflicts),
				strconv.Itoa(cmp.Edges),
				strconv.Itoa(cmp.Depth),
				ms(cmp.Sequential),
				ms(cmp.Parallel),
				fmt.Sprintf("%.2fx", cmp.Speedup()),
				fmt.Sprintf("%.0f%%", cmp.ParSigCacheHitRate*100),
				fmt.Sprintf("%.0f%%", cmp.ParParseHitRate*100),
			)
		}
	}
	return t, nil
}
