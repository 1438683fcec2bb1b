// Package endorser implements the endorser peer's proposal path: simulate a
// transaction proposal against the local state database, compute its
// read/write set, and sign the proposal response (paper §2.1.1, step 1 of
// Figure 1).
package endorser

import (
	"fmt"

	"bmac/internal/block"
	"bmac/internal/chaincode"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/statedb"
)

// Proposal is a client's transaction proposal.
type Proposal struct {
	Chaincode string
	Function  string
	Args      []string
	Nonce     []byte
	Creator   []byte // client certificate
}

// Hash returns the deterministic proposal hash every endorser embeds in its
// proposal response; identical proposals hash identically so the client can
// verify all endorsements cover the same simulation.
func (p *Proposal) Hash() []byte {
	var h fabcrypto.StreamHasher
	h.Write([]byte(p.Chaincode))
	h.Write([]byte{0})
	h.Write([]byte(p.Function))
	for _, a := range p.Args {
		h.Write([]byte{0})
		h.Write([]byte(a))
	}
	h.Write(p.Nonce)
	h.Write(p.Creator)
	return h.Sum()
}

// Response is an endorser's reply: the marshaled proposal response payload
// (which the endorsement signature covers) and the endorsement itself.
type Response struct {
	PRPBytes    []byte
	Endorsement block.Endorsement
}

// Endorser is one endorser peer.
type Endorser struct {
	id    *identity.Identity
	store *statedb.Store
	reg   *chaincode.Registry
}

// New creates an endorser peer with its own state database view.
func New(id *identity.Identity, store *statedb.Store, reg *chaincode.Registry) *Endorser {
	return &Endorser{id: id, store: store, reg: reg}
}

// Identity returns the endorser's identity.
func (e *Endorser) Identity() *identity.Identity { return e.id }

// Store returns the endorser's state database (committed by its validator
// side after each block).
func (e *Endorser) Store() *statedb.Store { return e.store }

// Process simulates the proposal and returns a signed endorsement.
func (e *Endorser) Process(p *Proposal) (*Response, error) {
	cc, err := e.reg.Get(p.Chaincode)
	if err != nil {
		return nil, err
	}
	stub := chaincode.NewStub(e.store)
	if err := cc.Invoke(stub, p.Function, p.Args); err != nil {
		return nil, fmt.Errorf("endorser %s simulate %s.%s: %w", e.id.Name, p.Chaincode, p.Function, err)
	}
	prp := block.ProposalResponsePayload{
		ProposalHash: p.Hash(),
		Extension: block.ChaincodeAction{
			Results:       stub.RWSet(),
			ResponseCode:  200,
			ChaincodeName: p.Chaincode,
		},
	}
	prpBytes := block.MarshalProposalResponsePayload(&prp)
	digest := block.EndorsementDigest(prpBytes, e.id.Cert)
	sig, err := e.id.SignDigest(digest[:])
	if err != nil {
		return nil, fmt.Errorf("endorser %s sign: %w", e.id.Name, err)
	}
	return &Response{
		PRPBytes: prpBytes,
		Endorsement: block.Endorsement{
			Endorser:  e.id.Cert,
			Signature: sig,
		},
	}, nil
}
