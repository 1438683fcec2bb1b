package block

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"bmac/internal/wire"
)

// The reference encoders below are the nested append-from-nil marshalers
// the exact-size encoders replaced, kept as the oracle they are checked
// against: every sub-message marshaled on its own, then copied into its
// parent as a length-delimited field.

func refMarshalRWSet(rw *RWSet) []byte {
	var b []byte
	for _, r := range rw.Reads {
		var rb []byte
		rb = wire.AppendString(rb, fReadKey, r.Key)
		rb = wire.AppendUint(rb, fReadBlockNum, r.Version.BlockNum)
		rb = wire.AppendUint(rb, fReadTxNum, r.Version.TxNum)
		b = wire.AppendBytesAlways(b, fRWSetRead, rb)
	}
	for _, w := range rw.Writes {
		var wb []byte
		wb = wire.AppendString(wb, fWriteKey, w.Key)
		wb = wire.AppendBytes(wb, fWriteValue, w.Value)
		b = wire.AppendBytesAlways(b, fRWSetWrite, wb)
	}
	return b
}

func refMarshalChaincodeAction(a *ChaincodeAction) []byte {
	var b []byte
	b = wire.AppendBytes(b, fCCAResults, refMarshalRWSet(&a.Results))
	b = wire.AppendUint(b, fCCARespCode, a.ResponseCode)
	b = wire.AppendBytes(b, fCCARespData, a.ResponseData)
	b = wire.AppendString(b, fCCAName, a.ChaincodeName)
	return b
}

func refMarshalProposalResponsePayload(p *ProposalResponsePayload) []byte {
	var b []byte
	b = wire.AppendBytes(b, fPRPHash, p.ProposalHash)
	b = wire.AppendBytes(b, fPRPExtension, refMarshalChaincodeAction(&p.Extension))
	return b
}

func refMarshalEndorsement(e *Endorsement) []byte {
	var b []byte
	b = wire.AppendBytes(b, fEndorserCert, e.Endorser)
	b = wire.AppendBytes(b, fEndorserSig, e.Signature)
	return b
}

func refMarshalEndorsedAction(a *EndorsedAction) []byte {
	var b []byte
	b = wire.AppendBytes(b, fEAProposalResponse, a.ProposalResponseBytes)
	for i := range a.Endorsements {
		b = wire.AppendBytesAlways(b, fEAEndorsement, refMarshalEndorsement(&a.Endorsements[i]))
	}
	return b
}

func refMarshalChaincodeActionPayload(p *ChaincodeActionPayload) []byte {
	var b []byte
	b = wire.AppendBytes(b, fCAPProposal, p.ProposalPayload)
	b = wire.AppendBytes(b, fCAPAction, refMarshalEndorsedAction(&p.Action))
	return b
}

func refMarshalChannelHeader(h *ChannelHeader) []byte {
	var b []byte
	b = wire.AppendUint(b, fChHdrType, h.Type)
	b = wire.AppendString(b, fChHdrTxID, h.TxID)
	b = wire.AppendString(b, fChHdrChannel, h.ChannelID)
	b = wire.AppendString(b, fChHdrCC, h.ChaincodeName)
	b = wire.AppendUint(b, fChHdrEpoch, h.Epoch)
	return b
}

func refMarshalSignatureHeader(h *SignatureHeader) []byte {
	var b []byte
	b = wire.AppendBytes(b, fSigHdrCreator, h.Creator)
	b = wire.AppendBytes(b, fSigHdrNonce, h.Nonce)
	return b
}

func refMarshalTransactionPayload(tx *Transaction) []byte {
	var action []byte
	action = wire.AppendBytes(action, fTxActionHeader, refMarshalSignatureHeader(&tx.SignatureHeader))
	action = wire.AppendBytes(action, fTxActionPayload, refMarshalChaincodeActionPayload(&tx.Payload))
	txData := wire.AppendBytesAlways(nil, 1, action)

	var b []byte
	b = wire.AppendBytes(b, fPayloadChannelHdr, refMarshalChannelHeader(&tx.ChannelHeader))
	b = wire.AppendBytes(b, fPayloadSigHdr, refMarshalSignatureHeader(&tx.SignatureHeader))
	b = wire.AppendBytes(b, fPayloadData, txData)
	return b
}

// refMarshalBlock is the block encoding written the same nested way.
func refMarshalBlock(b *Block) []byte {
	var hdr, data, sig, meta, out []byte
	hdr = wire.AppendUint(hdr, fHdrNumber, b.Header.Number)
	hdr = wire.AppendBytes(hdr, fHdrPrevHash, b.Header.PreviousHash)
	hdr = wire.AppendBytes(hdr, fHdrDataHash, b.Header.DataHash)
	for i := range b.Envelopes {
		var env []byte
		env = wire.AppendBytes(env, fEnvelopePayload, b.Envelopes[i].PayloadBytes)
		env = wire.AppendBytes(env, fEnvelopeSig, b.Envelopes[i].Signature)
		data = wire.AppendBytesAlways(data, 1, env)
	}
	ms := &b.Metadata.Signature
	sig = wire.AppendBytes(sig, fMetaSigCreator, ms.Creator)
	sig = wire.AppendBytes(sig, fMetaSigNonce, ms.Nonce)
	sig = wire.AppendBytes(sig, fMetaSigValue, ms.Signature)
	meta = wire.AppendBytes(meta, fMetaSig, sig)
	meta = wire.AppendBytes(meta, fMetaFlags, b.Metadata.ValidationFlags)
	meta = wire.AppendBytes(meta, fMetaCommit, b.Metadata.CommitHash)
	out = wire.AppendBytes(out, fBlockHeader, hdr)
	out = wire.AppendBytes(out, fBlockData, data)
	out = wire.AppendBytes(out, fBlockMeta, meta)
	return out
}

// EndorsementSigningBytes is the endorsement signing contract spelled out:
// the bytes whose SHA-256 EndorsementDigest computes without building them.
func EndorsementSigningBytes(proposalResponseBytes, endorserCert []byte) []byte {
	out := make([]byte, 0, len(proposalResponseBytes)+len(endorserCert))
	out = append(out, proposalResponseBytes...)
	out = append(out, endorserCert...)
	return out
}

// gen draws the fields of the messages above: every byte field and string
// is empty a quarter of the time, every integer zero a quarter of the time
// and otherwise of any width, so elision and every varint length occur.
type gen struct{ *rand.Rand }

func (g gen) bytes(max int) []byte {
	if g.Intn(4) == 0 {
		return nil
	}
	b := make([]byte, 1+g.Intn(max))
	g.Read(b)
	return b
}

func (g gen) str(max int) string { return string(g.bytes(max)) }

func (g gen) uint() uint64 {
	if g.Intn(4) == 0 {
		return 0
	}
	return g.Uint64() >> g.Intn(64)
}

func (g gen) rwset() RWSet {
	var rw RWSet
	for i := g.Intn(4); i > 0; i-- {
		rw.Reads = append(rw.Reads, KVRead{Key: g.str(12), Version: Version{BlockNum: g.uint(), TxNum: g.uint()}})
	}
	for i := g.Intn(4); i > 0; i-- {
		rw.Writes = append(rw.Writes, KVWrite{Key: g.str(12), Value: g.bytes(40)})
	}
	return rw
}

func (g gen) prp() ProposalResponsePayload {
	return ProposalResponsePayload{
		ProposalHash: g.bytes(32),
		Extension: ChaincodeAction{
			Results: g.rwset(), ResponseCode: g.uint(), ResponseData: g.bytes(20), ChaincodeName: g.str(10),
		},
	}
}

func (g gen) transaction() Transaction {
	tx := Transaction{
		ChannelHeader: ChannelHeader{
			Type: g.uint(), TxID: g.str(64), ChannelID: g.str(8), ChaincodeName: g.str(10), Epoch: g.uint(),
		},
		SignatureHeader: SignatureHeader{Creator: g.bytes(900), Nonce: g.bytes(24)},
		Payload: ChaincodeActionPayload{
			ProposalPayload: g.bytes(30),
			Action:          EndorsedAction{ProposalResponseBytes: g.bytes(300)},
		},
	}
	for i := g.Intn(5); i > 0; i-- {
		tx.Payload.Action.Endorsements = append(tx.Payload.Action.Endorsements,
			Endorsement{Endorser: g.bytes(900), Signature: g.bytes(72)})
	}
	return tx
}

func (g gen) block() *Block {
	b := &Block{Header: Header{Number: g.uint(), PreviousHash: g.bytes(32), DataHash: g.bytes(32)}}
	for i := g.Intn(5); i > 0; i-- {
		b.Envelopes = append(b.Envelopes, Envelope{PayloadBytes: g.bytes(400), Signature: g.bytes(72)})
	}
	b.Metadata = Metadata{
		Signature:       MetadataSignature{Creator: g.bytes(900), Nonce: g.bytes(24), Signature: g.bytes(72)},
		ValidationFlags: g.bytes(8),
		CommitHash:      g.bytes(32),
	}
	return b
}

// exactSize fails unless encode returns want, allocated at its exact size
// in its one allocation (none for an empty message).
func exactSize(t *testing.T, what string, encode func() []byte, want []byte) {
	t.Helper()
	enc := encode()
	if !bytes.Equal(enc, want) {
		t.Fatalf("%s differs from the reference encoder:\n got %x\nwant %x", what, enc, want)
	}
	if cap(enc) != len(enc) {
		t.Fatalf("%s: cap %d, len %d", what, cap(enc), len(enc))
	}
	if n, one := testing.AllocsPerRun(1, func() { encode() }), min(len(enc), 1); n != float64(one) {
		t.Fatalf("%s: %.0f allocations, want %d", what, n, one)
	}
}

// TestEncodersMatchReference holds every exact-size encoder to its nested
// reference over seeded random messages: empty fields, every varint
// length, 0–4 endorsements.
func TestEncodersMatchReference(t *testing.T) {
	g := gen{rand.New(rand.NewSource(32))}
	for i := 0; i < 3000; i++ {
		tx, p, b := g.transaction(), g.prp(), g.block()
		rw := &p.Extension.Results
		exactSize(t, "MarshalTransactionPayload", func() []byte { return MarshalTransactionPayload(&tx) }, refMarshalTransactionPayload(&tx))
		exactSize(t, "MarshalProposalResponsePayload", func() []byte { return MarshalProposalResponsePayload(&p) }, refMarshalProposalResponsePayload(&p))
		exactSize(t, "MarshalChaincodeAction", func() []byte { return MarshalChaincodeAction(&p.Extension) }, refMarshalChaincodeAction(&p.Extension))
		exactSize(t, "MarshalRWSet", func() []byte { return MarshalRWSet(rw) }, refMarshalRWSet(rw))
		exactSize(t, "Marshal", func() []byte { return Marshal(b) }, refMarshalBlock(b))
	}
}

// TestEndorsementDigestIsTheContract checks the digest every path signs and
// verifies against SHA-256 of the concatenation the contract names.
func TestEndorsementDigestIsTheContract(t *testing.T) {
	g := gen{rand.New(rand.NewSource(3))}
	for i := 0; i < 200; i++ {
		prp, cert := g.bytes(600), g.bytes(900)
		if got, want := EndorsementDigest(prp, cert), sha256.Sum256(EndorsementSigningBytes(prp, cert)); got != want {
			t.Fatalf("EndorsementDigest(%x, %x) = %x, want %x", prp, cert, got, want)
		}
	}
}
