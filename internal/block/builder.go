package block

import (
	"crypto/rand"
	"fmt"

	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
)

// TxSpec describes one transaction to build: which client creates it, which
// chaincode it invokes, its simulated read/write sets and which peers
// endorse it. Used by the workload driver and by tests.
type TxSpec struct {
	Creator   *identity.Identity
	Chaincode string
	Channel   string
	RWSet     RWSet
	Endorsers []*identity.Identity
	// CorruptClientSig, if set, flips a bit in the client signature to
	// force verification failure (fault-injection tests).
	CorruptClientSig bool
	// CorruptEndorsementIdx, if >= 0, corrupts that endorsement's
	// signature.
	CorruptEndorsementIdx int
}

// NewEndorsedEnvelope builds a fully signed transaction envelope following
// every signing contract: endorsers sign the proposal response payload plus
// their certificate, the client signs the complete payload.
func NewEndorsedEnvelope(spec TxSpec) (*Envelope, error) {
	if spec.Creator == nil {
		return nil, fmt.Errorf("block: tx spec has no creator")
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}

	prp := ProposalResponsePayload{
		ProposalHash: fabcrypto.HashSlice(nonce),
		Extension: ChaincodeAction{
			Results:       spec.RWSet,
			ResponseCode:  200,
			ChaincodeName: spec.Chaincode,
		},
	}
	prpBytes := MarshalProposalResponsePayload(&prp)

	endorsements := make([]Endorsement, 0, len(spec.Endorsers))
	for i, endorser := range spec.Endorsers {
		digest := EndorsementDigest(prpBytes, endorser.Cert)
		sig, err := endorser.SignDigest(digest[:])
		if err != nil {
			return nil, fmt.Errorf("endorsement by %s: %w", endorser.Name, err)
		}
		if spec.CorruptEndorsementIdx == i+1 { // 1-based to keep zero value inert
			sig[len(sig)-1] ^= 0xff
		}
		endorsements = append(endorsements, Endorsement{
			Endorser:  endorser.Cert,
			Signature: sig,
		})
	}

	tx := Transaction{
		ChannelHeader: ChannelHeader{
			Type:          HeaderTypeEndorserTransaction,
			TxID:          ComputeTxID(nonce, spec.Creator.Cert),
			ChannelID:     spec.Channel,
			ChaincodeName: spec.Chaincode,
		},
		SignatureHeader: SignatureHeader{
			Creator: spec.Creator.Cert,
			Nonce:   nonce,
		},
		Payload: ChaincodeActionPayload{
			ProposalPayload: nonce, // opaque stand-in for chaincode args
			Action: EndorsedAction{
				ProposalResponseBytes: prpBytes,
				Endorsements:          endorsements,
			},
		},
	}

	payloadBytes := MarshalTransactionPayload(&tx)
	sig, err := spec.Creator.Sign(payloadBytes)
	if err != nil {
		return nil, fmt.Errorf("client signature by %s: %w", spec.Creator.Name, err)
	}
	if spec.CorruptClientSig {
		sig[len(sig)-1] ^= 0xff
	}
	return &Envelope{PayloadBytes: payloadBytes, Signature: sig}, nil
}

// AssembleSpec describes an envelope assembled from endorser responses: the
// client gathered the proposal response payload and endorsements elsewhere
// (see internal/endorser) and now wraps and signs them.
type AssembleSpec struct {
	Creator   *identity.Identity
	Chaincode string
	Channel   string
	Nonce     []byte
	PRPBytes  []byte
	Endorsers []Endorsement
}

// NewEnvelopeFromResponses builds and signs the transaction envelope from
// gathered endorser responses — the client's second step in Figure 1.
func NewEnvelopeFromResponses(spec AssembleSpec) (*Envelope, error) {
	if spec.Creator == nil {
		return nil, fmt.Errorf("block: assemble spec has no creator")
	}
	tx := Transaction{
		ChannelHeader: ChannelHeader{
			Type:          HeaderTypeEndorserTransaction,
			TxID:          ComputeTxID(spec.Nonce, spec.Creator.Cert),
			ChannelID:     spec.Channel,
			ChaincodeName: spec.Chaincode,
		},
		SignatureHeader: SignatureHeader{
			Creator: spec.Creator.Cert,
			Nonce:   spec.Nonce,
		},
		Payload: ChaincodeActionPayload{
			ProposalPayload: spec.Nonce,
			Action: EndorsedAction{
				ProposalResponseBytes: spec.PRPBytes,
				Endorsements:          spec.Endorsers,
			},
		},
	}
	payloadBytes := MarshalTransactionPayload(&tx)
	sig, err := spec.Creator.Sign(payloadBytes)
	if err != nil {
		return nil, fmt.Errorf("client signature by %s: %w", spec.Creator.Name, err)
	}
	return &Envelope{PayloadBytes: payloadBytes, Signature: sig}, nil
}

// NewBlock assembles a block from envelopes, computing the data hash and
// linking to the previous block, then signs it as the orderer.
func NewBlock(number uint64, prevHash []byte, envelopes []Envelope,
	orderer *identity.Identity) (*Block, error) {
	b := &Block{
		Header: Header{
			Number:       number,
			PreviousHash: prevHash,
			DataHash:     DataHash(envelopes),
		},
		Envelopes: envelopes,
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("orderer nonce: %w", err)
	}
	sig, err := orderer.Sign(OrdererSigningBytes(&b.Header, nonce, orderer.Cert))
	if err != nil {
		return nil, fmt.Errorf("orderer signature: %w", err)
	}
	b.Metadata.Signature = MetadataSignature{
		Creator:   orderer.Cert,
		Nonce:     nonce,
		Signature: sig,
	}
	b.Metadata.ValidationFlags = make([]byte, len(envelopes))
	return b, nil
}

// VerifyOrdererSignature checks the block's metadata signature — step 1 of
// the validation pipeline (block verification).
func VerifyOrdererSignature(b *Block) error {
	ms := &b.Metadata.Signature
	pub, err := fabcrypto.PublicKeyFromCert(ms.Creator)
	if err != nil {
		return fmt.Errorf("orderer cert: %w", err)
	}
	msg := OrdererSigningBytes(&b.Header, ms.Nonce, ms.Creator)
	if err := fabcrypto.Verify(pub, msg, ms.Signature); err != nil {
		return fmt.Errorf("block %d orderer signature: %w", b.Header.Number, err)
	}
	return nil
}
