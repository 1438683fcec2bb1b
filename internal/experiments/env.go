// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4). Software-validator numbers are measured live on
// the host; Blockchain Machine numbers come from the calibrated timing
// simulator (internal/hwsim), exactly as the paper uses its own simulator
// for architectures beyond the FPGA's capacity. Functional results (flags,
// state) are cross-checked elsewhere (internal/core, internal/peer tests).
package experiments

import (
	"fmt"
	"strconv"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// Env is the shared experiment fixture: a 4-org network (enough for every
// policy in Figure 12) with one peer per org, a client and an orderer.
type Env struct {
	Net     *identity.Network
	Members *identity.Cache // Net's consortium, for the engines that validate its blocks
	Client  *identity.Identity
	Orderer *identity.Identity
	Peers   []*identity.Identity // Peers[i] belongs to Org(i+1)

	blockCache map[string]*block.Block
	keySeq     int
}

// NewEnv builds the fixture.
func NewEnv() (*Env, error) {
	n := identity.NewNetwork([]byte("experiments"))
	e := &Env{Net: n, blockCache: make(map[string]*block.Block)}
	for i := 1; i <= 4; i++ {
		org := fmt.Sprintf("Org%d", i)
		if _, err := n.AddOrg(org); err != nil {
			return nil, err
		}
		p, err := n.NewIdentity(org, identity.RolePeer)
		if err != nil {
			return nil, err
		}
		e.Peers = append(e.Peers, p)
	}
	var err error
	if e.Client, err = n.NewIdentity("Org1", identity.RoleClient); err != nil {
		return nil, err
	}
	if e.Orderer, err = n.NewIdentity("Org1", identity.RoleOrderer); err != nil {
		return nil, err
	}
	if e.Members, err = n.Members(); err != nil {
		return nil, err
	}
	return e, nil
}

// BlockSpec describes a uniform workload block.
type BlockSpec struct {
	Txs          int
	Endorsements int // endorsed by the peers of Org1..OrgE
	Reads        int // cold-key reads per tx (always mvcc-clean)
	Writes       int // unique-key writes per tx
}

func (s BlockSpec) key() string {
	return fmt.Sprintf("%d/%d/%d/%d", s.Txs, s.Endorsements, s.Reads, s.Writes)
}

// MakeBlock builds (and caches) a block of uniform valid transactions.
// Every read targets a never-written key at the zero version and every
// write targets a unique key, so the block validates clean against any
// fresh state database — the steady-state workload shape of the paper's
// throughput experiments.
func (e *Env) MakeBlock(spec BlockSpec) (*block.Block, error) {
	if b, ok := e.blockCache[spec.key()]; ok {
		return b, nil
	}
	endorsers := e.Peers[:spec.Endorsements]
	envs := make([]block.Envelope, 0, spec.Txs)
	for i := 0; i < spec.Txs; i++ {
		var rw block.RWSet
		for r := 0; r < spec.Reads; r++ {
			e.keySeq++
			rw.Reads = append(rw.Reads, block.KVRead{
				Key: "cold" + strconv.Itoa(e.keySeq),
			})
		}
		for w := 0; w < spec.Writes; w++ {
			e.keySeq++
			rw.Writes = append(rw.Writes, block.KVWrite{
				Key:   "k" + strconv.Itoa(e.keySeq),
				Value: []byte("0123456789abcdef"),
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
	b, err := block.NewBlock(0, nil, envs, e.Orderer)
	if err != nil {
		return nil, err
	}
	e.blockCache[spec.key()] = b
	return b, nil
}

// MeasureSW validates `rounds` copies of the block on a fresh software
// validator — the engine as a Fabric v1.4 peer lays it out: serial parse,
// vscc on `workers` threads, in-order mvcc — and returns the averaged
// breakdown.
func (e *Env) MeasureSW(spec BlockSpec, pol string, workers, rounds int) (validator.Breakdown, error) {
	b, err := e.MakeBlock(spec)
	if err != nil {
		return validator.Breakdown{}, err
	}
	raw := block.Marshal(b)
	p, err := policy.Parse(pol)
	if err != nil {
		return validator.Breakdown{}, fmt.Errorf("experiments: policy %q: %w", pol, err)
	}
	var sum validator.Breakdown
	for r := 0; r < rounds; r++ {
		v := pipeline.New(pipeline.Config{
			Workers:  workers,
			Policies: map[string]*policy.Policy{"smallbank": p},
			Members:  e.Members,
		}, statedb.NewStore(), nil) // no ledger: §4.2 excludes its commit from the metrics
		res, err := v.ValidateAndCommit(raw)
		v.Close()
		if err != nil {
			return validator.Breakdown{}, err
		}
		if got := block.CountValid(res.Flags); got != spec.Txs {
			return validator.Breakdown{}, fmt.Errorf("experiment block invalidated: %d/%d valid", got, spec.Txs)
		}
		sum.Add(res.Breakdown)
	}
	avg := sum
	n := time.Duration(rounds)
	avg.Unmarshal /= n
	avg.BlockVerify /= n
	avg.VerifyVSCC /= n
	avg.MVCC /= n
	avg.StateDB /= n
	avg.LedgerCommit /= n
	avg.Total /= n
	avg.ECDSATime /= n
	avg.SHA256Time /= n
	avg.ECDSACount /= rounds
	avg.SHA256Count /= rounds
	avg.SigCacheTime /= n
	avg.SigCacheHits /= rounds
	avg.ParseCacheHits /= rounds
	return avg, nil
}
