// Package hwsim is the high-level timing simulator of the BMac
// architecture. The paper itself ships such a simulator ("the performance
// reported by our simulator is always within 1% of actual measurements from
// the hardware", §4.1) and uses it for architectures beyond 16
// tx_validators; this package reproduces it.
//
// The model is a discrete-event simulation of the block_processor pipeline
// of Figure 6: a dedicated block_verify engine, N tx_validator instances
// (each a tx_verify engine feeding a tx_vscc stage with E ecdsa_engines), an
// in-order tx_collector, and a sequential tx_mvcc_commit stage over the
// in-hardware KVS. Which endorsements are verified, in how many rounds, is
// decided by the same ends_scheduler the functional model runs
// (policy.Scheduler); the simulator costs its output.
//
// Timing constants come from the paper where it gives them: a 250 MHz
// clock, ~360 us per ECDSA verification (the Mercury Systems IP), and "tens
// of us" for the non-cryptographic operations; the rest are fitted, and
// each says which it is.
package hwsim

import (
	"time"

	"bmac/internal/identity"
	"bmac/internal/policy"
)

// The model's timing constants, each with its source. The paper gives the
// first two (§4.3) and the 250 MHz clock the third. The last two are not in
// the paper: they are fitted values, and the Figure 11 and §4.3 latency
// checks (TestFigure11Calibration, TestTxLatencyNearPaper) hold with them.
const (
	// engineLatency is one ECDSA verification by the Mercury Systems IP:
	// ~360 us (§4.3).
	engineLatency = 360 * time.Microsecond
	// dispatchLatency is the tx_scheduler/FIFO handling of one
	// transaction: "tens of us" for the non-cryptographic operations
	// (§4.3), taken at its low end.
	dispatchLatency = 10 * time.Microsecond
	// dbAccessLatency is one in-hardware KVS read or write: a BRAM access
	// plus interlock, a few cycles at 250 MHz.
	dbAccessLatency = 500 * time.Nanosecond
	// mvccFixedLatency is the fixed cost of the tx_mvcc_commit stage per
	// transaction (fitted).
	mvccFixedLatency = 2 * time.Microsecond
	// blockFixedLatency is the per-block fill/drain overhead of the
	// pipeline (fitted).
	blockFixedLatency = 50 * time.Microsecond
)

// Config describes one simulated BMac architecture.
type Config struct {
	TxValidators int
	VSCCEngines  int

	// DisableShortCircuit models the ablation where the ends_scheduler
	// verifies every endorsement like Fabric does.
	DisableShortCircuit bool
}

func (c Config) withDefaults() Config {
	if c.TxValidators < 1 {
		c.TxValidators = 1
	}
	if c.VSCCEngines < 1 {
		c.VSCCEngines = 1
	}
	return c
}

// TxProfile describes one transaction's workload for the simulator.
type TxProfile struct {
	// Endorsers lists the endorsement identities in arrival order; the
	// ends_scheduler issues them in this order.
	Endorsers []identity.EncodedID
	// EndorsementValid marks which endorsement signatures verify (all
	// true in the common case).
	EndorsementValid []bool
	// TxSigValid is the client signature verdict.
	TxSigValid bool
	// Reads and Writes are the rdset/wrset sizes.
	Reads  int
	Writes int
}

// UniformTxProfile builds n identical all-valid transactions endorsed by
// the peers of orgs 1..endorsements, the workload shape of the paper's
// experiments.
func UniformTxProfile(n, endorsements, reads, writes int) []TxProfile {
	ends := make([]identity.EncodedID, endorsements)
	valid := make([]bool, endorsements)
	for i := range ends {
		ends[i] = identity.Encode(uint8(i+1), identity.RolePeer, 0)
		valid[i] = true
	}
	txs := make([]TxProfile, n)
	for i := range txs {
		txs[i] = TxProfile{
			Endorsers:        ends,
			EndorsementValid: valid,
			TxSigValid:       true,
			Reads:            reads,
			Writes:           writes,
		}
	}
	return txs
}

// BlockTiming is the simulated timing of one block through the pipeline.
type BlockTiming struct {
	// BlockVerify is the block_verify stage latency (overlapped with the
	// previous block's validate stage in steady state).
	BlockVerify time.Duration
	// Validate is the block_validate stage latency: from first tx issue to
	// the last mvcc_commit completion.
	Validate time.Duration
	// TxLatency is the mean per-transaction latency (issue to commit).
	TxLatency time.Duration
	// VSCCBusy is the cumulative ecdsa_engine busy time in tx_vscc.
	VSCCBusy time.Duration
	// MVCCBusy is the cumulative mvcc_commit stage busy time.
	MVCCBusy time.Duration
	// EndsVerified and EndsSkipped count endorsement engine usage.
	EndsVerified int
	EndsSkipped  int
}

// BlockLatency is the steady-state per-block latency: the block-level
// pipeline overlaps block_verify of block n+1 with validate of block n, so
// the bottleneck stage dominates.
func (t BlockTiming) BlockLatency() time.Duration {
	if t.Validate > t.BlockVerify {
		return t.Validate
	}
	return t.BlockVerify
}

// Throughput returns transactions per second at steady state for blocks of
// txCount transactions.
func (t BlockTiming) Throughput(txCount int) float64 {
	lat := t.BlockLatency()
	if lat <= 0 {
		return 0
	}
	return float64(txCount) / lat.Seconds()
}

// Simulate runs one block of transactions through the pipeline model and
// returns its timing.
func Simulate(cfg Config, circuit *policy.Circuit, txs []TxProfile) BlockTiming {
	c := cfg.withDefaults()
	var t BlockTiming
	t.BlockVerify = engineLatency

	n := len(txs)
	if n == 0 {
		t.Validate = blockFixedLatency
		return t
	}

	// The ends_scheduler's rounds, over the verdicts the profiles give.
	vscc := make([]policy.Tx, n)
	for i, tx := range txs {
		vscc[i].Endorsers = tx.Endorsers
		if tx.TxSigValid { // else early abort: no vscc
			vscc[i].Circuit = circuit
		}
	}
	sched := policy.Scheduler{Width: c.VSCCEngines, ShortCircuit: !c.DisableShortCircuit}
	sched.Run(vscc, func(round []policy.Request) []bool {
		valid := make([]bool, len(round))
		for j, rq := range round {
			valid[j] = txs[rq.Tx].EndorsementValid[rq.End]
		}
		return valid
	})

	// Per-validator pipeline state.
	verifyFree := make([]time.Duration, c.TxValidators)
	vsccFree := make([]time.Duration, c.TxValidators)

	vsccEnd := make([]time.Duration, n)
	var txStart = make([]time.Duration, n)

	for i, tx := range txs {
		// tx_scheduler: pick the validator whose tx_verify frees earliest.
		best := 0
		for v := 1; v < c.TxValidators; v++ {
			if verifyFree[v] < verifyFree[best] {
				best = v
			}
		}
		start := verifyFree[best] + dispatchLatency
		txStart[i] = start

		// tx_verify: one dedicated engine per validator.
		verifyEnd := start + engineLatency
		verifyFree[best] = verifyEnd

		// tx_vscc: one engine latency per round of up to E verifications.
		vsccLat := time.Duration(vscc[i].Rounds) * engineLatency
		t.VSCCBusy += time.Duration(vscc[i].Verified) * engineLatency
		t.EndsVerified += vscc[i].Verified
		t.EndsSkipped += len(tx.Endorsers) - vscc[i].Verified
		vsccEnd[i] = max(verifyEnd, vsccFree[best]) + vsccLat
		vsccFree[best] = vsccEnd[i]
	}

	// tx_collector (in order) + sequential tx_mvcc_commit.
	var mvccFree, release time.Duration
	var totalTxLat time.Duration
	for i, tx := range txs {
		release = max(release, vsccEnd[i])
		start := max(release, mvccFree)
		lat := mvccFixedLatency + time.Duration(tx.Reads+tx.Writes)*dbAccessLatency
		mvccFree = start + lat
		t.MVCCBusy += lat
		totalTxLat += mvccFree - txStart[i]
	}
	t.Validate = mvccFree + blockFixedLatency
	t.TxLatency = totalTxLat / time.Duration(n)
	return t
}
