package pipeline

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// oracle is the differential reference: a naive validator written straight
// from the Fabric v1.4 rules, sharing no code with the engine's stages or
// with validator.VSCCOne — one goroutine, no caches, no breakdown, its own
// plain map for state, transaction signatures checked by
// crypto/ecdsa.VerifyASN1 itself. Every engine configuration must agree with
// it bit for bit.
type oracle struct {
	pols  map[string]*policy.Policy
	ids   map[string]identity.EncodedID // certificate bytes -> identity
	state map[string]statedb.VersionedValue
}

func newOracle(r *rig) *oracle {
	o := &oracle{pols: r.pols, ids: map[string]identity.EncodedID{}, state: map[string]statedb.VersionedValue{}}
	for _, id := range r.net.Identities() {
		o.ids[string(id.Cert)] = id.ID
	}
	return o
}

// validateAndCommit has the engine's contract with a nil ledger: flags and
// the unchained commit hash, validator.ErrBlockInvalid for a block that
// fails block-level verification.
func (o *oracle) validateAndCommit(raw []byte) (flags, commitHash []byte, err error) {
	b, err := block.Unmarshal(raw)
	if err != nil {
		return nil, nil, err
	}
	flags = make([]byte, len(b.Envelopes))
	if !bytes.Equal(block.DataHash(b.Envelopes), b.Header.DataHash) || block.VerifyOrdererSignature(b) != nil {
		for i := range flags {
			flags[i] = byte(block.InvalidOther)
		}
		return flags, nil, fmt.Errorf("%w: oracle", validator.ErrBlockInvalid)
	}
	rwsets := make([]*block.RWSet, len(b.Envelopes))
	for i := range b.Envelopes {
		var code block.ValidationCode
		rwsets[i], code = o.vscc(&b.Envelopes[i])
		flags[i] = byte(code)
	}
	// mvcc in transaction order: a read conflicts when an earlier valid
	// transaction of this block wrote the key, or when its endorsed version
	// is not the committed one (an absent key has the zero version).
	written := map[string]bool{}
	for i, rw := range rwsets {
		if flags[i] != byte(block.Valid) {
			continue
		}
		for _, rd := range rw.Reads {
			if written[rd.Key] || o.state[rd.Key].Version != rd.Version {
				flags[i] = byte(block.MVCCReadConflict)
			}
		}
		if flags[i] != byte(block.Valid) {
			continue
		}
		for _, wr := range rw.Writes {
			written[wr.Key] = true
		}
	}
	for i, rw := range rwsets {
		if flags[i] != byte(block.Valid) {
			continue
		}
		for _, wr := range rw.Writes {
			o.state[wr.Key] = statedb.VersionedValue{
				Value:   append([]byte{}, wr.Value...),
				Version: block.Version{BlockNum: b.Header.Number, TxNum: uint64(i)},
			}
		}
	}
	return flags, block.CommitHash(nil, b.Header.DataHash, flags), nil
}

// vscc decodes and verifies one transaction: client signature, then every
// endorsement, then the chaincode's endorsement policy.
func (o *oracle) vscc(env *block.Envelope) (*block.RWSet, block.ValidationCode) {
	tx, err := block.UnmarshalTransactionPayload(env.PayloadBytes)
	if err != nil {
		return nil, block.BadPayload
	}
	prpBytes := tx.Payload.Action.ProposalResponseBytes
	prp, err := block.UnmarshalProposalResponsePayload(prpBytes)
	if err != nil {
		return nil, block.BadPayload
	}
	pub, err := fabcrypto.PublicKeyFromCert(tx.SignatureHeader.Creator)
	if err != nil {
		return nil, block.BadCreator
	}
	if !verifyASN1(pub, env.PayloadBytes, env.Signature) {
		return nil, block.BadSignature
	}
	var rf policy.RegisterFile
	for _, e := range tx.Payload.Action.Endorsements {
		epub, err := fabcrypto.PublicKeyFromCert(e.Endorser)
		if err != nil || !verifyASN1(epub, slices.Concat(prpBytes, e.Endorser), e.Signature) {
			continue // an unverifiable endorsement contributes nothing
		}
		if id, ok := o.ids[string(e.Endorser)]; ok {
			rf.SetID(id)
		}
	}
	pol, ok := o.pols[tx.ChannelHeader.ChaincodeName]
	if !ok {
		return nil, block.InvalidOther
	}
	if !policy.Compile(pol).Evaluate(&rf) {
		return nil, block.EndorsementPolicyFailure
	}
	return &prp.Extension.Results, block.Valid
}

func verifyASN1(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}

// verdict is what every validator must agree on for one block.
type verdict struct{ flags, commit []byte }

// oracleChain runs raws through a fresh oracle, returning each block's
// verdict and the final state.
func oracleChain(t testing.TB, r *rig, raws [][]byte) ([]verdict, map[string]statedb.VersionedValue) {
	t.Helper()
	o := newOracle(r)
	wants := make([]verdict, len(raws))
	for n, raw := range raws {
		flags, commit, err := o.validateAndCommit(raw)
		if err != nil {
			t.Fatalf("oracle block %d: %v", n, err)
		}
		wants[n] = verdict{flags, commit}
	}
	return wants, o.state
}
