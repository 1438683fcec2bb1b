package pipeline

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/validator"
)

// TestRejectionCostIsCarriedSignatures counts what hostile envelopes cost a
// peer. A block of honest transactions, payloads that do not decode, bad
// client signatures, endorsements by an identity outside the consortium and
// replayed copies of the honest envelopes costs exactly one verification per
// signature it carries: the orderer's, and the client's and each
// endorsement of every envelope whose payload decodes. An undecodable
// envelope costs none. That holds at every worker count, with the oracle's
// verdicts.
func TestRejectionCostIsCarriedSignatures(t *testing.T) {
	r := newRig(t)
	n := identity.NewNetwork([]byte("outsider"))
	if _, err := n.AddOrg("Org2"); err != nil {
		t.Fatal(err)
	}
	outsider, err := n.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}

	var (
		envs  []block.Envelope
		codes []block.ValidationCode
		want  = 1 // the orderer's signature
	)
	add := func(env block.Envelope, code block.ValidationCode, sigs int) {
		envs, codes, want = append(envs, env), append(codes, code), want+sigs
	}
	// spend reads an account at its genesis version and writes it: a copy
	// of the transaction in the same block is a double spend.
	spend := func(i int, endorsers ...*identity.Identity) block.TxSpec {
		key := "acct" + strconv.Itoa(i)
		return r.txSpec(block.RWSet{Reads: []block.KVRead{{Key: key}}, Writes: []block.KVWrite{w(key, "1")}}, endorsers...)
	}
	endorsed := func(spec block.TxSpec) block.Envelope {
		env, err := block.NewEndorsedEnvelope(spec)
		if err != nil {
			t.Fatal(err)
		}
		return *env
	}
	var honest []block.Envelope
	for i := 0; i < 3; i++ {
		env := endorsed(spend(i, r.peers[0], r.peers[1]))
		honest = append(honest, env)
		add(env, block.Valid, 3)
	}
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 3; i++ {
		bad := spend(3+i, r.peers[0], r.peers[1])
		bad.CorruptClientSig = true
		add(endorsed(bad), block.BadSignature, 3)
		add(endorsed(spend(6+i, r.peers[0], outsider)), block.EndorsementPolicyFailure, 3)
		add(honest[i], block.MVCCReadConflict, 3)
		payload, sig := make([]byte, 32+rng.Intn(224)), make([]byte, 70)
		rng.Read(payload)
		rng.Read(sig)
		if _, err := block.NewTxView(payload); err == nil {
			t.Fatalf("garbage payload %x decodes", payload)
		}
		add(block.Envelope{PayloadBytes: payload, Signature: sig}, block.BadPayload, 0)
	}
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	if got := validator.CarriedSignatures(b); got != want {
		t.Fatalf("CarriedSignatures = %d, want %d", got, want)
	}
	raws := [][]byte{block.Marshal(b)}
	wants, _ := oracleChain(t, r, raws)
	wantCodes(t, wants[0].flags, codes...)

	for _, workers := range workerCounts {
		label := fmt.Sprintf("%d workers", workers)
		eng := r.engine(workers)
		res, err := eng.ValidateAndCommit(raws[0])
		eng.Close()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkSame(t, label, 0, res.Flags, res.CommitHash, wants[0].flags, wants[0].commit)
		if got := res.Breakdown.ECDSACount; got != want {
			t.Errorf("%s: %d signatures verified, the block carries %d", label, got, want)
		}
	}
}
