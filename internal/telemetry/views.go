package telemetry

import "time"

// This file defines the per-subsystem instrument bundles. Each bundle is a
// struct of registry-backed instruments with a constructor that returns nil
// when the registry is nil, and nil-safe observe methods. Subsystems hold a
// (possibly nil) bundle pointer in their config; the existing ad-hoc stat
// structs (validator.Breakdown, delivery.PeerStats, cache Stats) stay as
// read adapters so experiment output is unchanged, while these bundles feed
// the live registry.

// ValidatorMetrics carries the per-stage validation histograms for one
// commit engine ("sequential" or "pipelined" label).
type ValidatorMetrics struct {
	Blocks, Txs *Counter

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
	return &ValidatorMetrics{
		Blocks:       r.Counter(Name("validator_blocks_total", "engine", engine)),
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
}

// ObserveBlock records one committed block's stage breakdown. All arguments
// are the validator.Breakdown fields of that block; a nil receiver ignores
// the call (one branch, telemetry off).
func (m *ValidatorMetrics) ObserveBlock(txs int, unmarshal, blockVerify, vscc, mvcc, statedb, ledger, prefetchWait, total time.Duration) {
	if m == nil {
		return
	}
	m.Blocks.Inc()
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

// CutReason says which rule closed an orderer batch.
type CutReason uint8

// The cut reasons. In a healthy network almost every cut is CutIdle at low
// load and CutSize under overload; CutTimeout is a symptom — raft had no
// leader, or an earlier block was stuck on its way out of the orderer.
const (
	CutSize    CutReason = iota // the batch reached BatchSize
	CutIdle                     // no earlier batch was still leaving the orderer
	CutTimeout                  // the oldest envelope had waited BatchTimeout
	CutReasons = 3
)

func (r CutReason) String() string {
	return [CutReasons]string{"size", "idle", "timeout"}[r]
}

// OrdererMetrics counts ordering-service activity: blocks/txs cut plus the
// reason each batch closed.
type OrdererMetrics struct {
	Blocks, Txs *Counter
	Cuts        [CutReasons]*Counter // indexed by CutReason
}

// NewOrdererMetrics builds the bundle; nil registry returns nil.
func NewOrdererMetrics(r *Registry) *OrdererMetrics {
	if r == nil {
		return nil
	}
	m := &OrdererMetrics{
		Blocks: r.Counter("orderer_blocks_total"),
		Txs:    r.Counter("orderer_txs_total"),
	}
	for i := range m.Cuts {
		m.Cuts[i] = r.Counter(Name("orderer_cuts_total", "reason", CutReason(i).String()))
	}
	return m
}

// ObserveBlock records one cut block.
func (m *OrdererMetrics) ObserveBlock(txs int) {
	if m == nil {
		return
	}
	m.Blocks.Inc()
	m.Txs.Add(int64(txs))
}

// ObserveCut records why one batch closed.
func (m *OrdererMetrics) ObserveCut(reason CutReason) {
	if m == nil {
		return
	}
	m.Cuts[reason].Inc()
}

// LoadMetrics carries the load generator's end-to-end view: transactions
// submitted/committed/late-scheduled and the submit→commit latency
// histogram.
type LoadMetrics struct {
	Submitted, Committed, Late *Counter
	E2E                        *Histogram
}

// NewLoadMetrics builds the bundle; nil registry returns nil.
func NewLoadMetrics(r *Registry) *LoadMetrics {
	if r == nil {
		return nil
	}
	return &LoadMetrics{
		Submitted: r.Counter("load_submitted_txs_total"),
		Committed: r.Counter("load_committed_txs_total"),
		Late:      r.Counter("load_late_txs_total"),
		E2E:       r.Histogram("load_e2e_seconds"),
	}
}

// ObserveSubmit records one submitted transaction.
func (m *LoadMetrics) ObserveSubmit() {
	if m == nil {
		return
	}
	m.Submitted.Inc()
}

// ObserveLate records one open-loop arrival that fired behind schedule.
func (m *LoadMetrics) ObserveLate() {
	if m == nil {
		return
	}
	m.Late.Inc()
}

// ObserveCommit records one committed transaction and its e2e latency.
func (m *LoadMetrics) ObserveCommit(d time.Duration) {
	if m == nil {
		return
	}
	m.Committed.Inc()
	m.E2E.Observe(d)
}

// LedgerMetrics carries one peer's segmented-ledger lifecycle counters:
// segment seals (rotation), quarantines (sealed-segment checksum failures),
// restores (quarantined ranges re-fetched through delivery), prunes
// (segments dropped after a covering checkpoint) and index rebuilds.
// It is held by value in ledger.Options — the zero value (telemetry off)
// is all nil handles, so each event costs one predicted branch.
type LedgerMetrics struct {
	Sealed, Quarantined, Restored *Counter
	RestoredBlocks, Pruned        *Counter
	IndexRebuilds                 *Counter
}

// NewLedgerMetrics builds the bundle for one peer's ledger; a nil registry
// returns the zero (all-discarding) bundle.
func NewLedgerMetrics(r *Registry, peer string) LedgerMetrics {
	if r == nil {
		return LedgerMetrics{}
	}
	c := func(base string) *Counter { return r.Counter(Name(base, "peer", peer)) }
	return LedgerMetrics{
		Sealed:         c("ledger_segments_sealed_total"),
		Quarantined:    c("ledger_segments_quarantined_total"),
		Restored:       c("ledger_segments_restored_total"),
		RestoredBlocks: c("ledger_blocks_restored_total"),
		Pruned:         c("ledger_segments_pruned_total"),
		IndexRebuilds:  c("ledger_index_rebuilds_total"),
	}
}

// PeerDeliveryMetrics carries one delivery pipe's counters. Lag is exported
// separately as a GaugeFunc by the delivery service (it is computed from
// ledger height at scrape time, not maintained on the hot path).
type PeerDeliveryMetrics struct {
	Blocks, Bytes, Dropped  *Counter
	CaughtUp, Redials, Errs *Counter
}

// NewPeerDeliveryMetrics builds the bundle for one subscribed peer; nil
// registry returns nil.
func NewPeerDeliveryMetrics(r *Registry, peer string) *PeerDeliveryMetrics {
	if r == nil {
		return nil
	}
	c := func(base string) *Counter { return r.Counter(Name(base, "peer", peer)) }
	return &PeerDeliveryMetrics{
		Blocks:   c("delivery_blocks_total"),
		Bytes:    c("delivery_bytes_total"),
		Dropped:  c("delivery_dropped_total"),
		CaughtUp: c("delivery_catchup_blocks_total"),
		Redials:  c("delivery_redials_total"),
		Errs:     c("delivery_send_errors_total"),
	}
}
