package pipeline

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// rig is the shared engine test fixture: a 3-org network, a client and an
// orderer, with a 2of2 smallbank policy.
type rig struct {
	peers   []*identity.Identity
	client  *identity.Identity
	orderer *identity.Identity
	pols    map[string]*policy.Policy
}

func newRig(t testing.TB) *rig {
	t.Helper()
	n := identity.NewNetwork()
	r := &rig{pols: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")}}
	for i := 1; i <= 3; i++ {
		org := fmt.Sprintf("Org%d", i)
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		p, err := n.NewIdentity(org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		r.peers = append(r.peers, p)
	}
	var err error
	if r.client, err = n.NewIdentity("Org1", identity.RoleClient); err != nil {
		t.Fatal(err)
	}
	if r.orderer, err = n.NewIdentity("Org1", identity.RoleOrderer); err != nil {
		t.Fatal(err)
	}
	return r
}

// variants names the engine configurations tests run over: the paper's
// Fabric v1.4 validator as it is, and the same with the read-set prefetch on.
var variants = []struct {
	name     string
	prefetch bool
}{{"fabric14", false}, {"prefetch", true}}

func (r *rig) engine(workers int) *Engine {
	return New(Config{Workers: workers, Policies: r.pols},
		statedb.NewStore(), nil)
}

// makeBlock builds a signed block of transactions from rw specs.
func (r *rig) makeBlock(t testing.TB, num uint64, rws []block.RWSet) *block.Block {
	t.Helper()
	envs := make([]block.Envelope, 0, len(rws))
	for _, rw := range rws {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator:   r.client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet:     rw,
			Endorsers: r.peers[:2],
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(num, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func w(key, val string) block.KVWrite { return block.KVWrite{Key: key, Value: []byte(val)} }

func TestEngineCommitsIndependentTxs(t *testing.T) {
	r := newRig(t)
	eng := r.engine(4)
	defer eng.Close()

	rws := make([]block.RWSet, 8)
	for i := range rws {
		rws[i] = block.RWSet{Writes: []block.KVWrite{w("k"+strconv.Itoa(i), "v")}}
	}
	b := r.makeBlock(t, 0, rws)
	res, err := eng.ValidateAndCommit(block.Marshal(b))
	if err != nil {
		t.Fatal(err)
	}
	if !res.BlockValid || block.CountValid(res.Flags) != 8 {
		t.Fatalf("flags = %v", res.Flags)
	}
	if eng.Store().Len() != 8 {
		t.Errorf("store has %d keys, want 8", eng.Store().Len())
	}
	for i := 0; i < 8; i++ {
		ver, ok := eng.Store().Version("k" + strconv.Itoa(i))
		if !ok || ver != (block.Version{BlockNum: 0, TxNum: uint64(i)}) {
			t.Errorf("k%d version = %v %v", i, ver, ok)
		}
	}
}

func TestEngineIntraBlockConflict(t *testing.T) {
	r := newRig(t)
	eng := r.engine(4)
	defer eng.Close()

	// tx0 writes hot; tx1 reads hot at the pre-block (zero) version ->
	// must be flagged MVCC_READ_CONFLICT exactly like the sequential path.
	rws := []block.RWSet{
		{Writes: []block.KVWrite{w("hot", "a")}},
		{Reads: []block.KVRead{{Key: "hot"}}, Writes: []block.KVWrite{w("x", "b")}},
		{Writes: []block.KVWrite{w("y", "c")}},
	}
	b := r.makeBlock(t, 0, rws)
	res, err := eng.ValidateAndCommit(block.Marshal(b))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.MVCCReadConflict), byte(block.Valid)}
	if !block.FlagsEqual(res.Flags, want) {
		t.Fatalf("flags = %v, want %v", res.Flags, want)
	}
	if _, ok := eng.Store().Version("x"); ok {
		t.Error("conflicted tx's write leaked into the store")
	}
}

func TestEngineCrossBlockVersions(t *testing.T) {
	r := newRig(t)
	eng := r.engine(4)
	defer eng.Close()

	b0 := r.makeBlock(t, 0, []block.RWSet{{Writes: []block.KVWrite{w("a", "1")}}})
	if _, err := eng.ValidateAndCommit(block.Marshal(b0)); err != nil {
		t.Fatal(err)
	}
	// Block 1 reads "a" at the version block 0 wrote: valid. A stale read
	// (zero version) conflicts.
	b1 := r.makeBlock(t, 1, []block.RWSet{
		{Reads: []block.KVRead{{Key: "a", Version: block.Version{BlockNum: 0, TxNum: 0}}},
			Writes: []block.KVWrite{w("a", "2")}},
		{Reads: []block.KVRead{{Key: "a"}}, Writes: []block.KVWrite{w("b", "x")}},
	})
	res, err := eng.ValidateAndCommit(block.Marshal(b1))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.MVCCReadConflict)}
	if !block.FlagsEqual(res.Flags, want) {
		t.Fatalf("flags = %v, want %v", res.Flags, want)
	}
	ver, _ := eng.Store().Version("a")
	if ver != (block.Version{BlockNum: 1, TxNum: 0}) {
		t.Errorf("a version = %v", ver)
	}
}

func TestEngineRejectsBadOrdererSignature(t *testing.T) {
	r := newRig(t)
	eng := r.engine(2)
	defer eng.Close()

	b := r.makeBlock(t, 0, []block.RWSet{{Writes: []block.KVWrite{w("a", "1")}}})
	b.Metadata.Signature.Signature[4] ^= 0xff
	res, err := eng.ValidateAndCommit(block.Marshal(b))
	if !errors.Is(err, validator.ErrBlockInvalid) {
		t.Fatalf("err = %v, want ErrBlockInvalid", err)
	}
	if res == nil || res.BlockValid {
		t.Fatal("block must be invalid")
	}
	for _, f := range res.Flags {
		if block.ValidationCode(f) != block.InvalidOther {
			t.Errorf("flags = %v", res.Flags)
		}
	}
	if eng.Store().Len() != 0 {
		t.Error("rejected block must not write state")
	}
}

func TestEngineMalformedBlock(t *testing.T) {
	r := newRig(t)
	eng := r.engine(2)
	defer eng.Close()
	if _, err := eng.ValidateAndCommit([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("expected unmarshal error")
	}
}
