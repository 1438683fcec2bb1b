package telemetry

import "time"

// This file defines the one instrument bundle the registry stores itself:
// the commit engine's per-stage histograms and transaction total, which no
// subsystem keeps. Every other count the registry exposes is kept by the
// subsystem that owns it, under its own lock, and registered as a GaugeFunc
// read at scrape time (ledger.Stats, delivery.PeerStats, Orderer.Stats and
// Cuts, load.Generator.Stats, the cache and statedb counters). The bundle's
// constructor returns nil when the registry is nil, and its observe method
// is nil-safe.

// ValidatorMetrics carries the per-stage validation histograms for one
// commit engine ("sequential" or "pipelined" label). The engine's block
// count is the Total histogram's count, exported as validator_blocks_total.
type ValidatorMetrics struct {
	Txs *Counter

	Unmarshal, BlockVerify, VerifyVSCC, MVCC *Histogram
	StateDB, LedgerCommit, PrefetchWait      *Histogram
	Total                                    *Histogram
}

// NewValidatorMetrics builds the bundle for one engine; nil registry
// returns nil (disabled).
func NewValidatorMetrics(r *Registry, engine string) *ValidatorMetrics {
	if r == nil {
		return nil
	}
	h := func(stage string) *Histogram {
		return r.Histogram(Name("validator_stage_seconds", "engine", engine, "stage", stage))
	}
	m := &ValidatorMetrics{
		Txs:          r.Counter(Name("validator_txs_total", "engine", engine)),
		Unmarshal:    h("unmarshal"),
		BlockVerify:  h("block_verify"),
		VerifyVSCC:   h("vscc"),
		MVCC:         h("mvcc"),
		StateDB:      h("statedb"),
		LedgerCommit: h("ledger_commit"),
		PrefetchWait: h("prefetch_wait"),
		Total:        h("total"),
	}
	r.GaugeFunc(Name("validator_blocks_total", "engine", engine), m.Total.Count)
	return m
}

// ObserveBlock records one committed block's stage breakdown. All arguments
// are the validator.Breakdown fields of that block; a nil receiver ignores
// the call (one branch, telemetry off).
func (m *ValidatorMetrics) ObserveBlock(txs int, unmarshal, blockVerify, vscc, mvcc, statedb, ledger, prefetchWait, total time.Duration) {
	if m == nil {
		return
	}
	m.Txs.Add(int64(txs))
	m.Unmarshal.Observe(unmarshal)
	m.BlockVerify.Observe(blockVerify)
	m.VerifyVSCC.Observe(vscc)
	m.MVCC.Observe(mvcc)
	m.StateDB.Observe(statedb)
	m.LedgerCommit.Observe(ledger)
	m.PrefetchWait.Observe(prefetchWait)
	m.Total.Observe(total)
}
