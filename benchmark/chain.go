package main

import (
	"fmt"
	"math/rand"
)

// kvVersion is the (block, tx) height a value was written at; the zero value
// is what a read of an absent key carries.
type kvVersion struct{ Block, Tx uint64 }

type kvRead struct {
	Key string
	Ver kvVersion
}

type kvWrite struct {
	Key   string
	Value []byte
}

// txPlan is the read/write set of one generated transaction.
type txPlan struct {
	Reads  []kvRead
	Writes []kvWrite
}

type kvState struct {
	Value []byte
	Ver   kvVersion
}

// chainSpec sizes a generated chain. ZipfS <= 1 draws keys uniformly; larger
// values draw them Zipf-distributed with that exponent, so a few hot keys
// carry most of the traffic and many transactions of one block conflict.
type chainSpec struct {
	Seed        int64
	Blocks      int
	TxsPerBlock int
	Keys        int
	ZipfS       float64
}

// chainPlan is a chain before signing: every transaction's RW set, the
// verdict a correct validator must reach for it, and the state a correct
// peer must hold after the last block.
type chainPlan struct {
	Blocks [][]txPlan
	Valid  [][]bool
	State  map[string]kvState
}

// planChain generates the chain's RW sets from the seed alone. Every
// transaction reads and writes two distinct keys. It is endorsed against the
// state as of the end of the previous block, so it is invalid exactly when
// an earlier valid transaction of its own block wrote a key it reads
// (Fabric's in-block MVCC rule); the version model below tracks that.
func planChain(spec chainSpec) *chainPlan {
	rng := rand.New(rand.NewSource(spec.Seed))
	pick := func() int { return rng.Intn(spec.Keys) }
	if spec.ZipfS > 1 {
		z := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Keys-1))
		pick = func() int { return int(z.Uint64()) }
	}
	plan := &chainPlan{State: make(map[string]kvState, spec.Keys)}
	for bn := 0; bn < spec.Blocks; bn++ {
		txs := make([]txPlan, spec.TxsPerBlock)
		valid := make([]bool, spec.TxsPerBlock)
		written := make(map[string]bool)
		pending := make(map[string]kvState) // this block's valid writes
		for i := range txs {
			a := pick()
			b := pick()
			for b == a {
				b = pick()
			}
			ok := true
			for _, k := range [2]int{a, b} {
				key := fmt.Sprintf("k%05d", k)
				val := make([]byte, 12)
				rng.Read(val)
				txs[i].Reads = append(txs[i].Reads, kvRead{Key: key, Ver: plan.State[key].Ver})
				txs[i].Writes = append(txs[i].Writes, kvWrite{Key: key, Value: val})
				if written[key] {
					ok = false
				}
			}
			valid[i] = ok
			if ok {
				for _, w := range txs[i].Writes {
					written[w.Key] = true
					pending[w.Key] = kvState{Value: w.Value, Ver: kvVersion{Block: uint64(bn), Tx: uint64(i)}}
				}
			}
		}
		for k, v := range pending {
			plan.State[k] = v
		}
		plan.Blocks = append(plan.Blocks, txs)
		plan.Valid = append(plan.Valid, valid)
	}
	return plan
}
