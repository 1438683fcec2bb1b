package policy

import (
	"fmt"
	"testing"

	"bmac/internal/identity"
)

// referenceEndsSchedule is the simulator's per-transaction ends_scheduler
// from before the round loop, kept as the loop's oracle: how many
// endorsements one transaction verifies, in how many batches of up to
// engines, and whether its policy ends up satisfied.
func referenceEndsSchedule(circuit *Circuit, endorsers []identity.EncodedID,
	valid []bool, engines int, disableShortCircuit bool) (verified, batches int, satisfied bool) {
	var rf RegisterFile
	rf.Clear()
	idx := 0
	for idx < len(endorsers) {
		if !disableShortCircuit {
			if circuit.Evaluate(&rf) {
				break
			}
			if !circuit.CanStillSatisfy(&rf, endorsers[idx:]) {
				break
			}
		}
		end := idx + engines
		if end > len(endorsers) {
			end = len(endorsers)
		}
		for i := idx; i < end; i++ {
			verified++
			if valid[i] {
				rf.SetID(endorsers[i])
			}
		}
		batches++
		idx = end
	}
	return verified, batches, circuit.Evaluate(&rf)
}

// scheduleOne runs one transaction through a Scheduler, its endorsements'
// verdicts given by valid.
func scheduleOne(s *Scheduler, circuit *Circuit, endorsers []identity.EncodedID, valid []bool) Tx {
	txs := []Tx{{Circuit: circuit, Endorsers: endorsers}}
	s.Run(txs, func(round []Request) []bool {
		out := make([]bool, len(round))
		for j, rq := range round {
			out[j] = valid[rq.End]
		}
		return out
	})
	return txs[0]
}

// peers returns the peers of Org1..Orgn and n verdicts, all valid.
func peers(n int) ([]identity.EncodedID, []bool) {
	ids := make([]identity.EncodedID, n)
	valid := make([]bool, n)
	for i := range ids {
		ids[i] = identity.Encode(uint8(i+1), identity.RolePeer, 0)
		valid[i] = true
	}
	return ids, valid
}

func TestEndsScheduleShortCircuit(t *testing.T) {
	tests := []struct {
		pol       string
		ends      int
		engines   int
		verified  int
		batches   int
		satisfied bool
	}{
		{"2of2", 2, 2, 2, 1, true},
		{"2of3", 3, 2, 2, 1, true}, // short-circuit skips the third
		{"3of3", 3, 2, 3, 2, true}, // second iteration needed (paper §4.3)
		{"3of3", 3, 3, 3, 1, true}, // 5x3-style: one batch
		{"1of1", 1, 2, 1, 1, true},
		{"2of4", 4, 2, 2, 1, true},
		{"4of4", 4, 2, 4, 2, true},
	}
	for _, tt := range tests {
		e, v := peers(tt.ends)
		c := Compile(mustParse(tt.pol))
		got := scheduleOne(&Scheduler{Width: tt.engines, ShortCircuit: true}, c, e, v)
		if sat := c.Evaluate(&got.RF); got.Verified != tt.verified || got.Rounds != tt.batches || sat != tt.satisfied {
			t.Errorf("%s/%d ends/%d engines: got %d verified %d rounds sat=%v, want %d/%d/%v",
				tt.pol, tt.ends, tt.engines, got.Verified, got.Rounds, sat,
				tt.verified, tt.batches, tt.satisfied)
		}
	}
}

func TestEndsScheduleInvalidityShortCircuit(t *testing.T) {
	// 3of3 with the first endorsement invalid: after round 1 (1 engine)
	// the policy can never be satisfied.
	e, _ := peers(3)
	c := Compile(mustParse("3of3"))
	got := scheduleOne(&Scheduler{Width: 1, ShortCircuit: true}, c, e, []bool{false, true, true})
	if sat := c.Evaluate(&got.RF); got.Verified != 1 || sat {
		t.Errorf("verified=%d sat=%v, want 1/false", got.Verified, sat)
	}
}

func TestEndsScheduleDisabled(t *testing.T) {
	e, v := peers(3)
	c := Compile(mustParse("2of3"))
	got := scheduleOne(&Scheduler{Width: 2}, c, e, v)
	if sat := c.Evaluate(&got.RF); got.Verified != 3 || !sat {
		t.Errorf("ablation: verified=%d sat=%v, want 3/true", got.Verified, sat)
	}
}

// fuzzPolicies are the policies a fuzz input picks from: every k-of-m with
// m ≤ 5 and the nested forms of the tests; nil stands for a transaction
// whose vscc does not run.
var fuzzPolicies = func() []*Circuit {
	out := []*Circuit{nil}
	for m := 1; m <= 5; m++ {
		for k := 1; k <= m; k++ {
			out = append(out, Compile(mustParse(fmt.Sprintf("%dof%d", k, m))))
		}
	}
	for _, src := range []string{
		"Org1 & (Org2 | (Org3 & Org4))",
		"(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)",
		"Org1.Admin & Org2.Peer",
		"Org1 | Org2.Client",
	} {
		out = append(out, Compile(mustParse(src)))
	}
	return out
}()

// fuzzTx is one transaction decoded from a fuzz input, with the verdicts of
// its endorsements.
type fuzzTx struct {
	circuit   *Circuit
	endorsers []identity.EncodedID
	valid     []bool
}

// decodeFuzzTxs reads transactions from data: a header byte (policy in the
// low five bits, endorser count 0–7 in the top three), one byte per endorser
// (org 0–7, role 0–7, seq 0–3: unknown identities, roles no policy names
// and duplicates all occur), then a byte of verdict bits. Missing bytes
// read as zero.
func decodeFuzzTxs(data []byte) []fuzzTx {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var txs []fuzzTx
	for len(data) > 0 && len(txs) < 8 {
		h := next()
		tx := fuzzTx{circuit: fuzzPolicies[int(h&31)%len(fuzzPolicies)]}
		for n := int(h >> 5); n > 0; n-- {
			b := next()
			tx.endorsers = append(tx.endorsers, identity.Encode(b&7, identity.Role(b>>5), b>>3&3))
		}
		bits := next()
		for i := range tx.endorsers {
			tx.valid = append(tx.valid, bits&(1<<i) != 0)
		}
		txs = append(txs, tx)
	}
	return txs
}

// FuzzEndsSchedule holds the round loop, over several transactions at once,
// to the per-transaction schedule it replaced: each transaction verifies the
// same endorsements in the same number of rounds and ends with the same
// policy output, whatever the other transactions of the run do. With the
// short-circuit off every endorsement is verified, in ⌈n ÷ width⌉ rounds;
// the register file holds exactly the valid endorsements issued.
func FuzzEndsSchedule(f *testing.F) {
	// The three schedule tests above, as seeds: 3of3 over Org1..3 at widths
	// 2 and 1 with the first endorsement invalid, 2of3 with the
	// short-circuit off, then a duplicate and an unknown endorser.
	f.Add([]byte{3<<5 | 6, 0x61, 0x62, 0x63, 0b111}, uint8(2), true)
	f.Add([]byte{3<<5 | 6, 0x61, 0x62, 0x63, 0b110}, uint8(1), true)
	f.Add([]byte{3<<5 | 5, 0x61, 0x62, 0x63, 0b111}, uint8(2), false)
	f.Add([]byte{4<<5 | 3, 0x61, 0x61, 0x00, 0x62, 0b1011, 1 << 5, 0x61, 1}, uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, width uint8, shortCircuit bool) {
		in := decodeFuzzTxs(data)
		s := &Scheduler{Width: int(width % 5), ShortCircuit: shortCircuit}
		txs := make([]Tx, len(in))
		for i := range in {
			txs[i] = Tx{Circuit: in[i].circuit, Endorsers: in[i].endorsers}
		}
		issued := make([]int, len(in)) // what each transaction has issued so far
		s.Run(txs, func(round []Request) []bool {
			perTx := make([]int, len(in))
			out := make([]bool, len(round))
			for j, rq := range round {
				if rq.End != issued[rq.Tx] {
					t.Fatalf("tx %d issued endorsement %d after %d of its endorsements", rq.Tx, rq.End, issued[rq.Tx])
				}
				issued[rq.Tx]++
				if perTx[rq.Tx]++; s.Width > 0 && perTx[rq.Tx] > s.Width {
					t.Fatalf("tx %d issued %d endorsements in a round of width %d", rq.Tx, perTx[rq.Tx], s.Width)
				}
				out[j] = in[rq.Tx].valid[rq.End]
			}
			return out
		})

		for i, tx := range txs {
			n := len(in[i].endorsers)
			if tx.Verified != issued[i] {
				t.Fatalf("tx %d: Verified %d, but %d were handed to verify", i, tx.Verified, issued[i])
			}
			var rf RegisterFile
			for k := 0; k < tx.Verified; k++ {
				if in[i].valid[k] {
					rf.SetID(in[i].endorsers[k])
				}
			}
			if rf != tx.RF {
				t.Fatalf("tx %d: register file is not the valid endorsements issued", i)
			}
			if tx.Circuit == nil {
				if tx.Verified != 0 || tx.Rounds != 0 {
					t.Fatalf("tx %d without a circuit issued %d endorsements in %d rounds", i, tx.Verified, tx.Rounds)
				}
				continue
			}
			engines := s.Width
			if engines == 0 {
				engines = max(n, 1)
			}
			verified, batches, satisfied := referenceEndsSchedule(tx.Circuit, in[i].endorsers, in[i].valid, engines, !s.ShortCircuit)
			if got := tx.Circuit.Evaluate(&tx.RF); tx.Verified != verified || tx.Rounds != batches || got != satisfied {
				t.Fatalf("tx %d (%s, %v, valid %v, width %d, short-circuit %v): verified %d in %d rounds, satisfied %v; reference %d in %d, %v",
					i, tx.Circuit.Policy().Expr, in[i].endorsers, in[i].valid, s.Width, s.ShortCircuit,
					tx.Verified, tx.Rounds, got, verified, batches, satisfied)
			}
			if !s.ShortCircuit && (tx.Verified != n || tx.Rounds != (n+engines-1)/engines) {
				t.Fatalf("tx %d: short-circuit off verified %d of %d in %d rounds", i, tx.Verified, n, tx.Rounds)
			}
		}
	})
}
