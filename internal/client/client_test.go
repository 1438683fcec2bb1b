package client

import (
	mrand "math/rand"
	"strconv"
	"sync"
	"testing"

	"bmac/internal/block"
	"bmac/internal/chaincode"
	"bmac/internal/endorser"
	"bmac/internal/identity"
	"bmac/internal/statedb"
)

// chanSubmitter collects envelopes.
type chanSubmitter struct {
	envs []*block.Envelope
}

func (c *chanSubmitter) Submit(e *block.Envelope) error {
	c.envs = append(c.envs, e)
	return nil
}

type fixture struct {
	net    *identity.Network
	client *identity.Identity
	e1, e2 *endorser.Endorser
	reg    *chaincode.Registry
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := n.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	reg := chaincode.NewRegistry(chaincode.Smallbank{}, chaincode.DRM{}, chaincode.SplitPay{})
	return &fixture{
		net:    n,
		client: cl,
		e1:     endorser.New(p1, statedb.NewStore(), reg),
		e2:     endorser.New(p2, statedb.NewStore(), reg),
		reg:    reg,
	}
}

func TestBootstrapPopulatesStores(t *testing.T) {
	f := newFixture(t)
	w := SmallbankWorkload{Accounts: 10}
	if err := Bootstrap(w, f.reg, f.e1.Store(), f.e2.Store()); err != nil {
		t.Fatal(err)
	}
	if f.e1.Store().Len() != 10 || f.e2.Store().Len() != 10 {
		t.Errorf("store sizes = %d/%d", f.e1.Store().Len(), f.e2.Store().Len())
	}
	if !statedb.SnapshotsEqual(f.e1.Store().Snapshot(), f.e2.Store().Snapshot()) {
		t.Error("bootstrap diverged across stores")
	}
}

func TestBootstrapHardwareMatches(t *testing.T) {
	f := newFixture(t)
	w := DRMWorkload{Assets: 5}
	if err := Bootstrap(w, f.reg, f.e1.Store()); err != nil {
		t.Fatal(err)
	}
	hw := statedb.NewHardwareKVS(100)
	if err := BootstrapHardware(w, f.reg, f.e1.Store(), hw); err != nil {
		t.Fatal(err)
	}
	if !statedb.SnapshotsEqual(f.e1.Store().Snapshot(), hw.Snapshot()) {
		t.Error("hardware bootstrap diverged")
	}
}

func TestDriverSubmitsEndorsedTransactions(t *testing.T) {
	f := newFixture(t)
	w := SmallbankWorkload{Accounts: 20}
	if err := Bootstrap(w, f.reg, f.e1.Store(), f.e2.Store()); err != nil {
		t.Fatal(err)
	}
	sub := &chanSubmitter{}
	d := NewDriver(f.client, []*endorser.Endorser{f.e1, f.e2}, sub, w, "ch1", 42)
	if err := d.Run(25); err != nil {
		t.Fatal(err)
	}
	if d.Submitted() != 25 || len(sub.envs) != 25 {
		t.Fatalf("submitted %d/%d", d.Submitted(), len(sub.envs))
	}
	// Every envelope decodes and carries two endorsements.
	for i, env := range sub.envs {
		tx, err := block.UnmarshalTransactionPayload(env.PayloadBytes)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if len(tx.Payload.Action.Endorsements) != 2 {
			t.Errorf("tx %d endorsements = %d", i, len(tx.Payload.Action.Endorsements))
		}
		if tx.ChannelHeader.ChaincodeName != "smallbank" {
			t.Errorf("tx %d chaincode = %q", i, tx.ChannelHeader.ChaincodeName)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	w := SmallbankWorkload{Accounts: 50}
	r1 := mrand.New(mrand.NewSource(7))
	r2 := mrand.New(mrand.NewSource(7))
	for i := 0; i < 20; i++ {
		f1, a1 := w.Next(r1)
		f2, a2 := w.Next(r2)
		if f1 != f2 || len(a1) != len(a2) {
			t.Fatal("workload not deterministic under the same seed")
		}
	}
}

func TestSplitPayWorkloadShape(t *testing.T) {
	w := SplitPayWorkload{Accounts: 20, Recipients: 4}
	rng := mrand.New(mrand.NewSource(1))
	fn, args := w.Next(rng)
	if fn != "split_payment" {
		t.Errorf("fn = %q", fn)
	}
	if len(args) != 2+4 {
		t.Errorf("args = %d, want 6", len(args))
	}
}

func TestApplyBlockRespectsFlags(t *testing.T) {
	f := newFixture(t)
	store := statedb.NewStore()
	env1, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: f.client, Chaincode: "cc", Channel: "ch",
		RWSet: block.RWSet{Writes: []block.KVWrite{{Key: "a", Value: []byte("1")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env2, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: f.client, Chaincode: "cc", Channel: "ch",
		RWSet: block.RWSet{Writes: []block.KVWrite{{Key: "b", Value: []byte("2")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ordID, err := f.net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(3, nil, []block.Envelope{*env1, *env2}, ordID)
	if err != nil {
		t.Fatal(err)
	}
	flags := []byte{byte(block.Valid), byte(block.BadSignature)}
	if err := ApplyBlock(store, b, flags); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("a"); err != nil {
		t.Error("valid write not applied")
	}
	if _, err := store.Get("b"); err == nil {
		t.Error("invalid write applied")
	}
	v, _ := store.Get("a")
	if v.Version != (block.Version{BlockNum: 3, TxNum: 0}) {
		t.Errorf("version = %+v", v.Version)
	}
}

func TestDRMWorkloadRuns(t *testing.T) {
	f := newFixture(t)
	w := DRMWorkload{Assets: 10}
	if err := Bootstrap(w, f.reg, f.e1.Store(), f.e2.Store()); err != nil {
		t.Fatal(err)
	}
	sub := &chanSubmitter{}
	d := NewDriver(f.client, []*endorser.Endorser{f.e1, f.e2}, sub, w, "ch1", 9)
	if err := d.Run(10); err != nil {
		t.Fatal(err)
	}
}

// TestSmallbankSkewConcentratesAccounts checks the hot-account Zipf dial:
// high skew must concentrate traffic on low-numbered accounts while zero
// skew stays roughly uniform; both must remain deterministic per seed.
func TestSmallbankSkewConcentratesAccounts(t *testing.T) {
	const accounts, draws = 100, 2000
	countLow := func(skew float64, seed int64) int {
		w := SmallbankWorkload{Accounts: accounts, Skew: skew}
		rng := mrand.New(mrand.NewSource(seed))
		low := 0
		for i := 0; i < draws; i++ {
			_, args := w.Next(rng)
			a, err := strconv.Atoi(args[0])
			if err != nil || a < 0 || a >= accounts {
				t.Fatalf("bad account %q", args[0])
			}
			if a < accounts/10 {
				low++
			}
		}
		return low
	}
	uniform := countLow(0, 1)
	skewed := countLow(2.0, 1)
	// Uniform: ~10% of draws hit the low decile. Zipf(2.0): the vast
	// majority do.
	if uniform > draws/4 {
		t.Errorf("uniform low-decile share too high: %d/%d", uniform, draws)
	}
	if skewed < draws/2 {
		t.Errorf("skewed low-decile share too low: %d/%d", skewed, draws)
	}
	if again := countLow(2.0, 1); again != skewed {
		t.Errorf("skewed workload not deterministic: %d vs %d", skewed, again)
	}
}

// TestEndorseUnderKeepsEndorsersInStep: with blocks landing on the endorser
// stores all the time, each applied to both under the write side of an
// RWMutex, a driver that gathers endorsements under its read side never
// sees the endorsers disagree: every one of its proposals is endorsed at the
// first attempt, against one state.
func TestEndorseUnderKeepsEndorsersInStep(t *testing.T) {
	f := newFixture(t)
	w := SmallbankWorkload{Accounts: 2}
	stores := []statedb.KVS{f.e1.Store(), f.e2.Store()}
	if err := Bootstrap(w, f.reg, stores...); err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for n := uint64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			for _, s := range stores {
				for k, v := range s.Snapshot() {
					s.WriteBatch([]block.KVWrite{{Key: k, Value: v.Value}}, block.Version{BlockNum: n})
				}
			}
			mu.Unlock()
		}
	}()
	sub := &chanSubmitter{}
	d := NewDriver(f.client, []*endorser.Endorser{f.e1, f.e2}, sub, w, "ch1", 5)
	d.EndorseUnder(mu.RLocker())
	err := d.Run(100)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
}
