package endorser

import (
	"bytes"
	"crypto/rand"
	"slices"
	"testing"

	"bmac/internal/block"
	"bmac/internal/chaincode"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/statedb"
)

type fixture struct {
	net    *identity.Network
	client *identity.Identity
	e1, e2 *Endorser
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
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
	reg := chaincode.NewRegistry(chaincode.Smallbank{}, chaincode.DRM{})

	// Both endorsers share the same world state content (separate stores).
	mkStore := func() *statedb.Store {
		s := statedb.NewStore()
		stub := chaincode.NewStub(s)
		if err := (chaincode.Smallbank{}).Invoke(stub, "create_account", []string{"1", "100", "50"}); err != nil {
			t.Fatal(err)
		}
		s.WriteBatch(stub.RWSet().Writes, block.Version{})
		stub2 := chaincode.NewStub(s)
		if err := (chaincode.Smallbank{}).Invoke(stub2, "create_account", []string{"2", "100", "50"}); err != nil {
			t.Fatal(err)
		}
		s.WriteBatch(stub2.RWSet().Writes, block.Version{})
		return s
	}
	return &fixture{
		net:    n,
		client: client,
		e1:     New(p1, mkStore(), reg),
		e2:     New(p2, mkStore(), reg),
	}
}

func proposal(t *testing.T, f *fixture) *Proposal {
	t.Helper()
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	return &Proposal{
		Chaincode: "smallbank",
		Function:  "send_payment",
		Args:      []string{"1", "2", "10"},
		Nonce:     nonce,
		Creator:   f.client.Cert,
	}
}

func TestEndorsersAgree(t *testing.T) {
	f := newFixture(t)
	p := proposal(t, f)
	r1, err := f.e1.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.e2.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	// Identical world state -> identical proposal response payloads.
	if !bytes.Equal(r1.PRPBytes, r2.PRPBytes) {
		t.Error("endorsers produced different proposal responses")
	}
	// But different signatures by different identities.
	if bytes.Equal(r1.Endorsement.Signature, r2.Endorsement.Signature) {
		t.Error("distinct endorsers produced identical signatures")
	}
}

func TestEndorsementSignatureVerifies(t *testing.T) {
	f := newFixture(t)
	r, err := f.e1.Process(proposal(t, f))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := fabcrypto.PublicKeyFromCert(r.Endorsement.Endorser)
	if err != nil {
		t.Fatal(err)
	}
	msg := slices.Concat(r.PRPBytes, r.Endorsement.Endorser)
	if err := fabcrypto.Verify(pub, msg, r.Endorsement.Signature); err != nil {
		t.Errorf("endorsement signature: %v", err)
	}
}

func TestRWSetContents(t *testing.T) {
	f := newFixture(t)
	r, err := f.e1.Process(proposal(t, f))
	if err != nil {
		t.Fatal(err)
	}
	prp, err := block.UnmarshalProposalResponsePayload(r.PRPBytes)
	if err != nil {
		t.Fatal(err)
	}
	rw := prp.Extension.Results
	if len(rw.Reads) != 2 || len(rw.Writes) != 2 {
		t.Errorf("rwset = %d/%d, want 2/2", len(rw.Reads), len(rw.Writes))
	}
	if prp.Extension.ChaincodeName != "smallbank" {
		t.Errorf("cc name = %q", prp.Extension.ChaincodeName)
	}
}

func TestAssembleEnvelopeFromResponses(t *testing.T) {
	f := newFixture(t)
	p := proposal(t, f)
	r1, err := f.e1.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.e2.Process(p)
	if err != nil {
		t.Fatal(err)
	}
	env, err := block.NewEnvelopeFromResponses(block.AssembleSpec{
		Creator:   f.client,
		Chaincode: "smallbank",
		Channel:   "ch1",
		Nonce:     p.Nonce,
		PRPBytes:  r1.PRPBytes,
		Endorsers: []block.Endorsement{r1.Endorsement, r2.Endorsement},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full round trip: the envelope decodes and endorsements verify.
	tx, err := block.UnmarshalTransactionPayload(env.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Payload.Action.Endorsements) != 2 {
		t.Fatalf("endorsements = %d", len(tx.Payload.Action.Endorsements))
	}
	for i, e := range tx.Payload.Action.Endorsements {
		pub, err := fabcrypto.PublicKeyFromCert(e.Endorser)
		if err != nil {
			t.Fatal(err)
		}
		msg := slices.Concat(tx.Payload.Action.ProposalResponseBytes, e.Endorser)
		if err := fabcrypto.Verify(pub, msg, e.Signature); err != nil {
			t.Errorf("endorsement %d after assembly: %v", i, err)
		}
	}
}

func TestProposalHashDeterministic(t *testing.T) {
	p1 := &Proposal{Chaincode: "cc", Function: "f", Args: []string{"a", "b"}, Nonce: []byte{1}}
	p2 := &Proposal{Chaincode: "cc", Function: "f", Args: []string{"a", "b"}, Nonce: []byte{1}}
	if !bytes.Equal(p1.Hash(), p2.Hash()) {
		t.Error("identical proposals hash differently")
	}
	p3 := &Proposal{Chaincode: "cc", Function: "f", Args: []string{"ab"}, Nonce: []byte{1}}
	if bytes.Equal(p1.Hash(), p3.Hash()) {
		t.Error("arg boundary not separated in hash")
	}
}

func TestProcessUnknownChaincode(t *testing.T) {
	f := newFixture(t)
	p := proposal(t, f)
	p.Chaincode = "nope"
	if _, err := f.e1.Process(p); err == nil {
		t.Error("expected error for unknown chaincode")
	}
}

func TestProcessSimulationError(t *testing.T) {
	f := newFixture(t)
	p := proposal(t, f)
	p.Args = []string{"404", "2", "10"} // missing account
	if _, err := f.e1.Process(p); err == nil {
		t.Error("expected simulation error")
	}
}
