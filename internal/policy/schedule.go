package policy

import "bmac/internal/identity"

// Tx is one transaction as the ends_scheduler sees it, and what the schedule
// left behind: the register file of the endorsements that verified,
// Endorsers[:Verified] verified (the rest skipped), in Rounds rounds.
type Tx struct {
	Circuit   *Circuit             // the chaincode's policy; nil: vscc does not run
	Endorsers []identity.EncodedID // in arrival order, the order they are issued in

	RF       RegisterFile
	Verified int
	Rounds   int
}

// Request names one endorsement issued in a round: Endorsers[End] of txs[Tx].
type Request struct{ Tx, End int }

// Scheduler is the ends_scheduler of tx_vscc (paper §3.3) over a set of
// transactions: in each round every transaction issues up to Width of its
// next endorsements, decided from its own register file alone, and the
// round's endorsements are verified together. The zero value is Fabric's
// vscc: every endorsement in one round. A Scheduler reuses its scratch from
// run to run and is not safe for concurrent use.
type Scheduler struct {
	Width        int  // endorsements a transaction issues per round, the E of N×E; 0: all at once
	ShortCircuit bool // issue none once the policy output is decided

	round []Request
}

// Run schedules txs until no transaction issues anything. verify verifies a
// round and returns one verdict per Request; a valid endorsement sets its
// endorser's bit in the transaction's register file.
func (s *Scheduler) Run(txs []Tx, verify func(round []Request) []bool) {
	for i := range txs {
		txs[i].RF.Clear()
		txs[i].Verified, txs[i].Rounds = 0, 0
	}
	for {
		round := s.round[:0]
		for i := range txs {
			tx := &txs[i]
			n := s.next(tx)
			for end := tx.Verified; end < tx.Verified+n; end++ {
				round = append(round, Request{Tx: i, End: end})
			}
			if n > 0 {
				tx.Verified += n
				tx.Rounds++
			}
		}
		if s.round = round; len(round) == 0 {
			return
		}
		for j, ok := range verify(round) {
			if tx := &txs[round[j].Tx]; ok {
				tx.RF.SetID(tx.Endorsers[round[j].End])
			}
		}
	}
}

// next is one decision of tx's ends_scheduler: how many endorsements it
// issues this round. Short-circuiting, none once the policy is satisfied
// (validity) or can no longer be (invalidity).
func (s *Scheduler) next(tx *Tx) int {
	left := tx.Endorsers[tx.Verified:]
	if tx.Circuit == nil || len(left) == 0 ||
		s.ShortCircuit && (tx.Circuit.Evaluate(&tx.RF) || !tx.Circuit.CanStillSatisfy(&tx.RF, left)) {
		return 0
	}
	if s.Width > 0 {
		return min(s.Width, len(left))
	}
	return len(left)
}
