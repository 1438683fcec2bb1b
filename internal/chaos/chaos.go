// Package chaos is the fault-injection plane of the cluster harness: an
// adversarial workload generator plus composable chaos faults, turning the
// honest-but-slow scenarios (slow peers, churn, modeled latency) into
// hostile ones. The paper's line-rate validation thesis is only credible
// if rejection is cheap under attack — a payload that does not decode costs
// no verification and a signature is verified once per peer — and this
// package is how the claim becomes a machine-checked gate.
//
// Two independent axes compose freely:
//
//   - The Adversary (adversary.go) floods the ordering service with
//     hostile transactions alongside the honest load: corrupt client
//     signatures, malformed payload bytes, forged self-endorsed envelopes
//     and verbatim replays of captured honest envelopes (the double-spend
//     storm — replayed read sets are stale, so every copy past the first
//     loses MVCC). All of them are flag-invalidated deterministically by
//     every peer, so convergence is preserved by construction while the
//     valid-transaction throughput gate measures the cost of rejection.
//
//   - Chaos faults (faults.go) break the infrastructure under load: a
//     network partition severing a peer's delivery link (Switch +
//     SeverableTransport), bit-flip corruption on the gossip wire
//     (CorruptingTransport), a slow or flaky disk under the ledger and
//     checkpoint writers (DiskFault), and at-rest bit-rot in a sealed
//     ledger segment (CorruptSealedSegment).
//
// The cluster harness (internal/cluster) wires the adversary through
// Options.Adversary and the faults as the steps of a scripted scenario
// (Options.Scenario): sever and heal drive a Switch, corrupt-frames a
// Corrupter, slow-disk a DiskFault and corrupt-segment
// CorruptSealedSegment; a kill-leader step stops the raft leader, and the
// orderer follows the new one. The `adversarial` experiment asserts
// the gates: invalid floods cannot degrade valid-tx TPS below a bound, and
// every fault script ends with the fast peers converged bit-identical
// (statedb.SnapshotHash equality).
package chaos
