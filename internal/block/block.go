// Package block defines the Fabric-like block and transaction structures and
// their wire encodings.
//
// A marshaled block is a deep stack of nested protobuf messages, mirroring
// Hyperledger Fabric v1.4:
//
//	Block
//	 ├─ BlockHeader{number, previous_hash, data_hash}
//	 ├─ BlockData[ Envelope... ]
//	 │    Envelope{payload, signature}
//	 │     └─ Payload{header{channel_header, signature_header}, data}
//	 │         └─ Transaction{actions}
//	 │             └─ TransactionAction{header, payload}
//	 │                 └─ ChaincodeActionPayload{proposal_payload, action}
//	 │                     └─ ChaincodeEndorsedAction{prp, endorsements}
//	 │                         ├─ ProposalResponsePayload{hash, extension}
//	 │                         │   └─ ChaincodeAction{results, response, cc}
//	 │                         │       └─ TxReadWriteSet{reads, writes}
//	 │                         └─ Endorsement{endorser_cert, signature}...
//	 └─ BlockMetadata{signatures, validation_flags, commit_hash}
//
// Retrieving any inner value requires decoding every outer layer first —
// the unmarshaling bottleneck the paper measures at ~10% of validation time.
//
// # Aliasing contract (zero-copy decode)
//
// Unmarshal, UnmarshalTransactionPayload, UnmarshalProposalResponsePayload
// and the other decoders return structures whose byte-slice fields ALIAS the
// input buffer instead of copying it: decoding a block costs one pass and no
// per-field allocations. NewTxView goes further: a TxView is the payload
// bytes themselves, read in place, with no structure decoded at all. Three
// obligations follow for callers:
//
//   - The input buffer must not be mutated or recycled (e.g. returned to a
//     pool) while the decoded structures — or anything derived from them,
//     such as a TxView over one of a block's payloads — are live. Network
//     receive paths allocate a fresh buffer per block, so this holds
//     naturally on the commit path.
//   - Nothing that outlives the block may keep an aliasing slice, or a
//     string made over one without a copy: a state database copies every
//     key and value it stores (TxView.AppendWrites copies the keys of a
//     write set).
//   - Callers that need detached structures (to reuse their read buffer)
//     use UnmarshalCopy, which pays one up-front copy of the input.
//
// Marshaling is the mirror image: every message size is precomputed exactly
// (Size), so Marshal performs a single allocation, and AppendBlock lets
// owners of a buffer's lifetime (ledger append, wire frames) marshal into a
// pooled buffer for zero steady-state allocations.
package block

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"

	"bmac/internal/fabcrypto"
	"bmac/internal/wire"
)

// ErrMalformed reports a block or transaction that fails to decode.
var ErrMalformed = errors.New("block: malformed message")

// ValidationCode classifies the outcome of validating one transaction,
// following Fabric's TxValidationCode values (subset).
type ValidationCode uint8

// Validation codes. Valid must be zero so a fresh flags array means
// "not yet invalidated".
const (
	Valid ValidationCode = iota
	BadSignature
	BadCreator
	EndorsementPolicyFailure
	MVCCReadConflict
	BadPayload
	InvalidOther
)

// String implements fmt.Stringer.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "VALID"
	case BadSignature:
		return "BAD_SIGNATURE"
	case BadCreator:
		return "BAD_CREATOR"
	case EndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case MVCCReadConflict:
		return "MVCC_READ_CONFLICT"
	case BadPayload:
		return "BAD_PAYLOAD"
	case InvalidOther:
		return "INVALID_OTHER"
	default:
		return fmt.Sprintf("CODE(%d)", uint8(c))
	}
}

// Version identifies the block/transaction that last wrote a key, the unit
// of the mvcc check.
type Version struct {
	BlockNum uint64
	TxNum    uint64
}

// Less orders versions lexicographically.
func (v Version) Less(o Version) bool {
	if v.BlockNum != o.BlockNum {
		return v.BlockNum < o.BlockNum
	}
	return v.TxNum < o.TxNum
}

// KVRead is one entry of a transaction read set: the key read during
// endorsement and the version observed.
type KVRead struct {
	Key     string
	Version Version
}

// KVWrite is one entry of a transaction write set.
type KVWrite struct {
	Key   string
	Value []byte
}

// RWSet is a transaction's read-write set computed at endorsement time.
type RWSet struct {
	Reads  []KVRead
	Writes []KVWrite
}

// Endorsement is one peer's endorsement: its identity certificate and its
// signature over (ProposalResponsePayload bytes || endorser certificate),
// matching Fabric's endorsement signing contract.
type Endorsement struct {
	Endorser  []byte // DER X.509 certificate
	Signature []byte // DER ECDSA signature
}

// ChaincodeAction carries the results of chaincode simulation.
type ChaincodeAction struct {
	Results       RWSet
	ResponseCode  uint64
	ResponseData  []byte
	ChaincodeName string
}

// ProposalResponsePayload wraps the chaincode action with the proposal hash.
type ProposalResponsePayload struct {
	ProposalHash []byte
	Extension    ChaincodeAction
}

// EndorsedAction couples the (marshaled) proposal response payload with the
// endorsements over it.
type EndorsedAction struct {
	// ProposalResponseBytes is the exact marshaled ProposalResponsePayload
	// the endorsers signed; kept verbatim so signatures stay verifiable.
	ProposalResponseBytes []byte
	Endorsements          []Endorsement
}

// ChaincodeActionPayload is the body of a transaction action.
type ChaincodeActionPayload struct {
	ProposalPayload []byte // chaincode input args (opaque here)
	Action          EndorsedAction
}

// SignatureHeader identifies a message creator.
type SignatureHeader struct {
	Creator []byte // DER X.509 certificate
	Nonce   []byte
}

// ChannelHeader carries transaction routing metadata.
type ChannelHeader struct {
	Type          uint64
	TxID          string
	ChannelID     string
	ChaincodeName string
	Epoch         uint64
}

// Header types for ChannelHeader.Type.
const (
	HeaderTypeEndorserTransaction = 3
	HeaderTypeConfig              = 1
)

// Transaction is the ordered list of actions (Fabric always uses one).
type Transaction struct {
	ChannelHeader   ChannelHeader
	SignatureHeader SignatureHeader
	Payload         ChaincodeActionPayload
}

// Envelope is a signed transaction: the marshaled payload plus the client
// creator's signature over it.
type Envelope struct {
	PayloadBytes []byte // marshaled Payload (header + transaction)
	Signature    []byte // creator's DER signature over PayloadBytes
}

// MetadataSignature is the orderer's signature over the block header.
type MetadataSignature struct {
	Creator   []byte // orderer certificate
	Nonce     []byte
	Signature []byte // over marshaled BlockHeader || nonce || creator
}

// Metadata carries block-level trailer data.
type Metadata struct {
	Signature       MetadataSignature
	ValidationFlags []byte // one ValidationCode per transaction (set by validator)
	CommitHash      []byte // set by validator at commit time
}

// Header is the block header; its hash chains blocks together.
type Header struct {
	Number       uint64
	PreviousHash []byte
	DataHash     []byte
}

// Block is a complete block.
type Block struct {
	Header    Header
	Envelopes []Envelope
	Metadata  Metadata
}

// --- field numbers (stable wire contract) ---

const (
	fBlockHeader = 1
	fBlockData   = 2
	fBlockMeta   = 3

	fDataEnvelope = 1

	fHdrNumber   = 1
	fHdrPrevHash = 2
	fHdrDataHash = 3

	fEnvelopePayload = 1
	fEnvelopeSig     = 2

	fPayloadChannelHdr = 1
	fPayloadSigHdr     = 2
	fPayloadData       = 3

	fChHdrType    = 1
	fChHdrTxID    = 2
	fChHdrChannel = 3
	fChHdrCC      = 4
	fChHdrEpoch   = 5

	fSigHdrCreator = 1
	fSigHdrNonce   = 2

	fTxActions = 1

	fTxActionHeader  = 1
	fTxActionPayload = 2

	fCAPProposal = 1
	fCAPAction   = 2

	fEAProposalResponse = 1
	fEAEndorsement      = 2

	fPRPHash      = 1
	fPRPExtension = 2

	fCCAResults  = 1
	fCCARespCode = 2
	fCCARespData = 3
	fCCAName     = 4

	fRWSetRead  = 1
	fRWSetWrite = 2

	fReadKey      = 1
	fReadBlockNum = 2
	fReadTxNum    = 3

	fWriteKey   = 1
	fWriteValue = 2

	fEndorserCert = 1
	fEndorserSig  = 2

	fMetaSig        = 1
	fMetaFlags      = 2
	fMetaCommit     = 3
	fMetaSigCreator = 1
	fMetaSigNonce   = 2
	fMetaSigValue   = 3
)

// --- marshal ---
//
// Every message has a size function, exact to the byte, and an append
// function that writes it into a buffer of that capacity: an exported
// Marshal* sizes once, allocates once and appends in a single pass, and an
// enclosing message writes a sub-message's tag and length from its size
// before appending it in place. An empty optional field is elided, as
// wire.AppendBytes does; a repeated element is written even when empty.

// sizeField is the encoded size of optional field num carrying n bytes: 0
// when n is 0, since the field is then elided.
func sizeField(num, n int) int {
	if n == 0 {
		return 0
	}
	return wire.SizeBytesField(num, n)
}

// appendLen appends the tag and length of a length-delimited field whose n
// bytes the caller appends next.
func appendLen(dst []byte, num, n int) []byte {
	dst = wire.AppendTag(dst, num, wire.TypeBytes)
	return wire.AppendVarint(dst, uint64(n))
}

// appendOptLen is appendLen for an optional field: nothing when n is 0.
func appendOptLen(dst []byte, num, n int) []byte {
	if n == 0 {
		return dst
	}
	return appendLen(dst, num, n)
}

func sizeKVRead(r *KVRead) int {
	return sizeField(fReadKey, len(r.Key)) +
		wire.SizeUintField(fReadBlockNum, r.Version.BlockNum) +
		wire.SizeUintField(fReadTxNum, r.Version.TxNum)
}

func sizeKVWrite(w *KVWrite) int {
	return sizeField(fWriteKey, len(w.Key)) + sizeField(fWriteValue, len(w.Value))
}

func sizeRWSet(rw *RWSet) int {
	n := 0
	for i := range rw.Reads {
		n += wire.SizeBytesField(fRWSetRead, sizeKVRead(&rw.Reads[i]))
	}
	for i := range rw.Writes {
		n += wire.SizeBytesField(fRWSetWrite, sizeKVWrite(&rw.Writes[i]))
	}
	return n
}

func appendRWSet(dst []byte, rw *RWSet) []byte {
	for i := range rw.Reads {
		r := &rw.Reads[i]
		dst = appendLen(dst, fRWSetRead, sizeKVRead(r))
		dst = wire.AppendString(dst, fReadKey, r.Key)
		dst = wire.AppendUint(dst, fReadBlockNum, r.Version.BlockNum)
		dst = wire.AppendUint(dst, fReadTxNum, r.Version.TxNum)
	}
	for i := range rw.Writes {
		w := &rw.Writes[i]
		dst = appendLen(dst, fRWSetWrite, sizeKVWrite(w))
		dst = wire.AppendString(dst, fWriteKey, w.Key)
		dst = wire.AppendBytes(dst, fWriteValue, w.Value)
	}
	return dst
}

// MarshalRWSet encodes a read-write set in one exact-size allocation.
func MarshalRWSet(rw *RWSet) []byte {
	return appendRWSet(make([]byte, 0, sizeRWSet(rw)), rw)
}

// UnmarshalRWSet decodes a read-write set.
func UnmarshalRWSet(data []byte) (*RWSet, error) {
	rw := &RWSet{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fRWSetRead:
			var kr KVRead
			if err := unmarshalKVRead(r.Bytes(), &kr); err != nil {
				return nil, err
			}
			rw.Reads = append(rw.Reads, kr)
		case fRWSetWrite:
			var kw KVWrite
			if err := unmarshalKVWrite(r.Bytes(), &kw); err != nil {
				return nil, err
			}
			rw.Writes = append(rw.Writes, kw)
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: rwset: %v", ErrMalformed, err)
	}
	return rw, nil
}

func unmarshalKVRead(data []byte, kr *KVRead) error {
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fReadKey:
			kr.Key = r.String()
		case fReadBlockNum:
			kr.Version.BlockNum = r.Uint()
		case fReadTxNum:
			kr.Version.TxNum = r.Uint()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: kvread: %v", ErrMalformed, err)
	}
	return nil
}

func unmarshalKVWrite(data []byte, kw *KVWrite) error {
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fWriteKey:
			kw.Key = r.String()
		case fWriteValue:
			kw.Value = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: kvwrite: %v", ErrMalformed, err)
	}
	return nil
}

func sizeChaincodeAction(a *ChaincodeAction) int {
	return sizeField(fCCAResults, sizeRWSet(&a.Results)) +
		wire.SizeUintField(fCCARespCode, a.ResponseCode) +
		sizeField(fCCARespData, len(a.ResponseData)) +
		sizeField(fCCAName, len(a.ChaincodeName))
}

func appendChaincodeAction(dst []byte, a *ChaincodeAction) []byte {
	dst = appendOptLen(dst, fCCAResults, sizeRWSet(&a.Results))
	dst = appendRWSet(dst, &a.Results)
	dst = wire.AppendUint(dst, fCCARespCode, a.ResponseCode)
	dst = wire.AppendBytes(dst, fCCARespData, a.ResponseData)
	return wire.AppendString(dst, fCCAName, a.ChaincodeName)
}

// MarshalChaincodeAction encodes a chaincode action in one exact-size
// allocation.
func MarshalChaincodeAction(a *ChaincodeAction) []byte {
	return appendChaincodeAction(make([]byte, 0, sizeChaincodeAction(a)), a)
}

// UnmarshalChaincodeAction decodes a chaincode action.
func UnmarshalChaincodeAction(data []byte) (*ChaincodeAction, error) {
	a := &ChaincodeAction{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fCCAResults:
			rw, err := UnmarshalRWSet(r.Bytes())
			if err != nil {
				return nil, err
			}
			a.Results = *rw
		case fCCARespCode:
			a.ResponseCode = r.Uint()
		case fCCARespData:
			a.ResponseData = r.Bytes()
		case fCCAName:
			a.ChaincodeName = r.String()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: chaincode action: %v", ErrMalformed, err)
	}
	return a, nil
}

// MarshalProposalResponsePayload encodes a proposal response payload in one
// exact-size allocation. The returned bytes are what endorsers sign (see
// EndorsementDigest).
func MarshalProposalResponsePayload(p *ProposalResponsePayload) []byte {
	ext := sizeChaincodeAction(&p.Extension)
	dst := make([]byte, 0, sizeField(fPRPHash, len(p.ProposalHash))+sizeField(fPRPExtension, ext))
	dst = wire.AppendBytes(dst, fPRPHash, p.ProposalHash)
	dst = appendOptLen(dst, fPRPExtension, ext)
	return appendChaincodeAction(dst, &p.Extension)
}

// UnmarshalProposalResponsePayload decodes a proposal response payload.
func UnmarshalProposalResponsePayload(data []byte) (*ProposalResponsePayload, error) {
	p := &ProposalResponsePayload{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fPRPHash:
			p.ProposalHash = r.Bytes()
		case fPRPExtension:
			ext, err := UnmarshalChaincodeAction(r.Bytes())
			if err != nil {
				return nil, err
			}
			p.Extension = *ext
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: proposal response: %v", ErrMalformed, err)
	}
	return p, nil
}

func unmarshalEndorsement(data []byte) (Endorsement, error) {
	var e Endorsement
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fEndorserCert:
			e.Endorser = r.Bytes()
		case fEndorserSig:
			e.Signature = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return e, fmt.Errorf("%w: endorsement: %v", ErrMalformed, err)
	}
	return e, nil
}

func unmarshalEndorsedAction(data []byte) (*EndorsedAction, error) {
	a := &EndorsedAction{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fEAProposalResponse:
			a.ProposalResponseBytes = r.Bytes()
		case fEAEndorsement:
			e, err := unmarshalEndorsement(r.Bytes())
			if err != nil {
				return nil, err
			}
			a.Endorsements = append(a.Endorsements, e)
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: endorsed action: %v", ErrMalformed, err)
	}
	return a, nil
}

func unmarshalChaincodeActionPayload(data []byte) (*ChaincodeActionPayload, error) {
	p := &ChaincodeActionPayload{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fCAPProposal:
			p.ProposalPayload = r.Bytes()
		case fCAPAction:
			a, err := unmarshalEndorsedAction(r.Bytes())
			if err != nil {
				return nil, err
			}
			p.Action = *a
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: chaincode action payload: %v", ErrMalformed, err)
	}
	return p, nil
}

// UnmarshalChannelHeader decodes a channel header.
func UnmarshalChannelHeader(data []byte) (*ChannelHeader, error) {
	h := &ChannelHeader{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fChHdrType:
			h.Type = r.Uint()
		case fChHdrTxID:
			h.TxID = r.String()
		case fChHdrChannel:
			h.ChannelID = r.String()
		case fChHdrCC:
			h.ChaincodeName = r.String()
		case fChHdrEpoch:
			h.Epoch = r.Uint()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: channel header: %v", ErrMalformed, err)
	}
	return h, nil
}

// UnmarshalSignatureHeader decodes a signature header.
func UnmarshalSignatureHeader(data []byte) (*SignatureHeader, error) {
	h := &SignatureHeader{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fSigHdrCreator:
			h.Creator = r.Bytes()
		case fSigHdrNonce:
			h.Nonce = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: signature header: %v", ErrMalformed, err)
	}
	return h, nil
}

func sizeChannelHeader(h *ChannelHeader) int {
	return wire.SizeUintField(fChHdrType, h.Type) +
		sizeField(fChHdrTxID, len(h.TxID)) +
		sizeField(fChHdrChannel, len(h.ChannelID)) +
		sizeField(fChHdrCC, len(h.ChaincodeName)) +
		wire.SizeUintField(fChHdrEpoch, h.Epoch)
}

func sizeSignatureHeader(h *SignatureHeader) int {
	return sizeField(fSigHdrCreator, len(h.Creator)) + sizeField(fSigHdrNonce, len(h.Nonce))
}

// appendSignatureHeader appends h as optional field num.
func appendSignatureHeader(dst []byte, num int, h *SignatureHeader) []byte {
	dst = appendOptLen(dst, num, sizeSignatureHeader(h))
	dst = wire.AppendBytes(dst, fSigHdrCreator, h.Creator)
	return wire.AppendBytes(dst, fSigHdrNonce, h.Nonce)
}

func sizeEndorsement(e *Endorsement) int {
	return sizeField(fEndorserCert, len(e.Endorser)) + sizeField(fEndorserSig, len(e.Signature))
}

func sizeEndorsedAction(a *EndorsedAction) int {
	n := sizeField(fEAProposalResponse, len(a.ProposalResponseBytes))
	for i := range a.Endorsements {
		n += wire.SizeBytesField(fEAEndorsement, sizeEndorsement(&a.Endorsements[i]))
	}
	return n
}

func sizeChaincodeActionPayload(p *ChaincodeActionPayload) int {
	return sizeField(fCAPProposal, len(p.ProposalPayload)) + sizeField(fCAPAction, sizeEndorsedAction(&p.Action))
}

// sizeTransactionAction is the size of a transaction's one action: the
// signature header again (Fabric repeats it there) and the payload.
func sizeTransactionAction(tx *Transaction) int {
	return sizeField(fTxActionHeader, sizeSignatureHeader(&tx.SignatureHeader)) +
		sizeField(fTxActionPayload, sizeChaincodeActionPayload(&tx.Payload))
}

func sizeTransactionPayload(tx *Transaction) int {
	return sizeField(fPayloadChannelHdr, sizeChannelHeader(&tx.ChannelHeader)) +
		sizeField(fPayloadSigHdr, sizeSignatureHeader(&tx.SignatureHeader)) +
		wire.SizeBytesField(fPayloadData, wire.SizeBytesField(fTxActions, sizeTransactionAction(tx)))
}

// MarshalTransactionPayload produces the Envelope payload bytes: the
// three-part Payload{channel header, signature header, transaction data}
// where transaction data itself nests actions. The whole nest is sized
// first and then written front to back into one exact-size allocation.
func MarshalTransactionPayload(tx *Transaction) []byte {
	dst := make([]byte, 0, sizeTransactionPayload(tx))

	h := &tx.ChannelHeader
	dst = appendOptLen(dst, fPayloadChannelHdr, sizeChannelHeader(h))
	dst = wire.AppendUint(dst, fChHdrType, h.Type)
	dst = wire.AppendString(dst, fChHdrTxID, h.TxID)
	dst = wire.AppendString(dst, fChHdrChannel, h.ChannelID)
	dst = wire.AppendString(dst, fChHdrCC, h.ChaincodeName)
	dst = wire.AppendUint(dst, fChHdrEpoch, h.Epoch)

	dst = appendSignatureHeader(dst, fPayloadSigHdr, &tx.SignatureHeader)

	// Transaction data: repeated actions, of which we always emit one, like
	// Fabric — so the field is never empty.
	action := sizeTransactionAction(tx)
	dst = appendLen(dst, fPayloadData, wire.SizeBytesField(fTxActions, action))
	dst = appendLen(dst, fTxActions, action)
	dst = appendSignatureHeader(dst, fTxActionHeader, &tx.SignatureHeader)

	p := &tx.Payload
	dst = appendOptLen(dst, fTxActionPayload, sizeChaincodeActionPayload(p))
	dst = wire.AppendBytes(dst, fCAPProposal, p.ProposalPayload)
	a := &p.Action
	dst = appendOptLen(dst, fCAPAction, sizeEndorsedAction(a))
	dst = wire.AppendBytes(dst, fEAProposalResponse, a.ProposalResponseBytes)
	for i := range a.Endorsements {
		e := &a.Endorsements[i]
		dst = appendLen(dst, fEAEndorsement, sizeEndorsement(e))
		dst = wire.AppendBytes(dst, fEndorserCert, e.Endorser)
		dst = wire.AppendBytes(dst, fEndorserSig, e.Signature)
	}
	return dst
}

// UnmarshalTransactionPayload decodes Envelope payload bytes into a
// Transaction, walking all nesting layers.
func UnmarshalTransactionPayload(data []byte) (*Transaction, error) {
	tx := &Transaction{}
	r := wire.NewReader(data)
	var txData []byte
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fPayloadChannelHdr:
			ch, err := UnmarshalChannelHeader(r.Bytes())
			if err != nil {
				return nil, err
			}
			tx.ChannelHeader = *ch
		case fPayloadSigHdr:
			sh, err := UnmarshalSignatureHeader(r.Bytes())
			if err != nil {
				return nil, err
			}
			tx.SignatureHeader = *sh
		case fPayloadData:
			txData = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrMalformed, err)
	}
	if txData == nil {
		return nil, fmt.Errorf("%w: payload missing transaction data", ErrMalformed)
	}

	actionBytes, err := firstAction(txData)
	if err != nil {
		return nil, err
	}

	ar := wire.NewReader(actionBytes)
	for {
		num, wt, ok := ar.Next()
		if !ok {
			break
		}
		switch num {
		case fTxActionHeader:
			ar.Skip(wt) // duplicate of payload signature header
		case fTxActionPayload:
			cap2, err := unmarshalChaincodeActionPayload(ar.Bytes())
			if err != nil {
				return nil, err
			}
			tx.Payload = *cap2
		default:
			ar.Skip(wt)
		}
	}
	if err := ar.Err(); err != nil {
		return nil, fmt.Errorf("%w: transaction action: %v", ErrMalformed, err)
	}
	return tx, nil
}

// MarshalEnvelope encodes a signed envelope in a single exact-size
// allocation.
func MarshalEnvelope(e *Envelope) []byte {
	return AppendEnvelope(make([]byte, 0, SizeEnvelope(e)), e)
}

// SizeEnvelope reports the exact marshaled size of an envelope, so that a
// message carrying envelopes can be allocated once.
func SizeEnvelope(e *Envelope) int {
	return sizeField(fEnvelopePayload, len(e.PayloadBytes)) + sizeField(fEnvelopeSig, len(e.Signature))
}

// AppendEnvelope appends the marshaled envelope to dst: with capacity for
// SizeEnvelope(e) more bytes, it does not allocate.
func AppendEnvelope(dst []byte, e *Envelope) []byte {
	dst = wire.AppendBytes(dst, fEnvelopePayload, e.PayloadBytes)
	dst = wire.AppendBytes(dst, fEnvelopeSig, e.Signature)
	return dst
}

// UnmarshalEnvelope decodes a signed envelope (see DecodeEnvelope).
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	e, err := DecodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	return &e, nil
}

// DecodeEnvelope decodes a signed envelope without allocating: the payload
// and signature must be length-delimited, a field that occurs more than once
// is decided by its last occurrence, and any other field is skipped by its
// wire type. The envelope aliases data. This is the one reading of an
// envelope's bytes: the block decoder, the BMac sender's pointer
// annotations and the BMac receiver all take it.
//
// bmaclint:noalloc
func DecodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fEnvelopePayload:
			e.PayloadBytes = r.Bytes()
		case fEnvelopeSig:
			e.Signature = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("%w: envelope: %v", ErrMalformed, err)
	}
	return e, nil
}

// MarshalHeader encodes a block header; its digest is the block hash.
func MarshalHeader(h *Header) []byte {
	return appendHeader(make([]byte, 0, sizeHeader(h)), h)
}

func sizeHeader(h *Header) int {
	return wire.SizeUintField(fHdrNumber, h.Number) +
		sizeField(fHdrPrevHash, len(h.PreviousHash)) +
		sizeField(fHdrDataHash, len(h.DataHash))
}

func appendHeader(dst []byte, h *Header) []byte {
	dst = wire.AppendUint(dst, fHdrNumber, h.Number)
	dst = wire.AppendBytes(dst, fHdrPrevHash, h.PreviousHash)
	dst = wire.AppendBytes(dst, fHdrDataHash, h.DataHash)
	return dst
}

// UnmarshalHeader decodes a block header.
func UnmarshalHeader(data []byte) (*Header, error) {
	h := &Header{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fHdrNumber:
			h.Number = r.Uint()
		case fHdrPrevHash:
			h.PreviousHash = r.Bytes()
		case fHdrDataHash:
			h.DataHash = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: block header: %v", ErrMalformed, err)
	}
	return h, nil
}

func sizeMetadataSig(ms *MetadataSignature) int {
	return sizeField(fMetaSigCreator, len(ms.Creator)) +
		sizeField(fMetaSigNonce, len(ms.Nonce)) +
		sizeField(fMetaSigValue, len(ms.Signature))
}

func sizeMetadata(m *Metadata) int {
	return sizeMetadataOf(&m.Signature, len(m.ValidationFlags), len(m.CommitHash))
}

func sizeMetadataOf(sig *MetadataSignature, flags, commitHash int) int {
	return sizeField(fMetaSig, sizeMetadataSig(sig)) +
		sizeField(fMetaFlags, flags) +
		sizeField(fMetaCommit, commitHash)
}

// SizeCommitMetadata is the encoded size of the metadata field of a block
// signed with sig once its commit has set flags validation flags and the
// commit hash: known before the flags are.
func SizeCommitMetadata(sig *MetadataSignature, flags int) int {
	return sizeField(fBlockMeta, sizeMetadataOf(sig, flags, fabcrypto.HashSize))
}

func appendMetadata(dst []byte, m *Metadata) []byte {
	dst = appendOptLen(dst, fMetaSig, sizeMetadataSig(&m.Signature))
	dst = wire.AppendBytes(dst, fMetaSigCreator, m.Signature.Creator)
	dst = wire.AppendBytes(dst, fMetaSigNonce, m.Signature.Nonce)
	dst = wire.AppendBytes(dst, fMetaSigValue, m.Signature.Signature)
	dst = wire.AppendBytes(dst, fMetaFlags, m.ValidationFlags)
	dst = wire.AppendBytes(dst, fMetaCommit, m.CommitHash)
	return dst
}

func unmarshalMetadata(data []byte) (*Metadata, error) {
	m := &Metadata{}
	r := wire.NewReader(data)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case fMetaSig:
			sr := wire.NewReader(r.Bytes())
			for {
				sn, swt, sok := sr.Next()
				if !sok {
					break
				}
				switch sn {
				case fMetaSigCreator:
					m.Signature.Creator = sr.Bytes()
				case fMetaSigNonce:
					m.Signature.Nonce = sr.Bytes()
				case fMetaSigValue:
					m.Signature.Signature = sr.Bytes()
				default:
					sr.Skip(swt)
				}
			}
			if err := sr.Err(); err != nil {
				return nil, fmt.Errorf("%w: metadata signature: %v", ErrMalformed, err)
			}
		case fMetaFlags:
			m.ValidationFlags = r.Bytes()
		case fMetaCommit:
			m.CommitHash = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: metadata: %v", ErrMalformed, err)
	}
	return m, nil
}

func sizeBlockData(envelopes []Envelope) int {
	n := 0
	for i := range envelopes {
		n += wire.SizeBytesField(fDataEnvelope, SizeEnvelope(&envelopes[i]))
	}
	return n
}

// Size reports the exact marshaled size of a block, letting callers
// allocate (or pool) the output buffer once.
func Size(b *Block) int {
	return SizeBody(b) + sizeField(fBlockMeta, sizeMetadata(&b.Metadata))
}

// SizeBody is the encoded size of AppendBody's output.
func SizeBody(b *Block) int {
	return sizeField(fBlockHeader, sizeHeader(&b.Header)) +
		sizeField(fBlockData, sizeBlockData(b.Envelopes))
}

// AppendBlock appends the marshaled block to dst and returns the extended
// slice. Sub-message sizes are precomputed, so marshaling into a buffer of
// capacity Size(b) performs no allocation at all — the pooled fast path for
// callers that own the buffer's lifetime (ledger append, wire frames).
//
// bmaclint:noalloc
func AppendBlock(dst []byte, b *Block) []byte {
	return AppendMetadataField(AppendBody(dst, b), &b.Metadata)
}

// AppendBody appends the fields of the marshaled block that precede its
// metadata: the header and the data. A ledger writes them before the
// commit has set the metadata, then AppendMetadataField's bytes after them.
//
// bmaclint:noalloc
func AppendBody(dst []byte, b *Block) []byte {
	dst = appendOptLen(dst, fBlockHeader, sizeHeader(&b.Header))
	dst = appendHeader(dst, &b.Header)
	dst = appendOptLen(dst, fBlockData, sizeBlockData(b.Envelopes))
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		dst = appendLen(dst, fDataEnvelope, SizeEnvelope(e))
		dst = AppendEnvelope(dst, e)
	}
	return dst
}

// AppendMetadataField appends the block's last field, its metadata m.
//
// bmaclint:noalloc
func AppendMetadataField(dst []byte, m *Metadata) []byte {
	dst = appendOptLen(dst, fBlockMeta, sizeMetadata(m))
	return appendMetadata(dst, m)
}

// Marshal encodes a complete block in one exact-size allocation.
func Marshal(b *Block) []byte {
	return AppendBlock(make([]byte, 0, Size(b)), b)
}

// Unmarshal decodes a complete block. The result aliases data (see the
// package comment); use UnmarshalCopy when the buffer will be reused.
//
// The top-level block message is a closed format: exactly the header, data
// and metadata fields, each at most once. Anything else — in particular
// trailing bytes that happen to look like additional fields — is rejected
// as malformed rather than silently skipped, so a block record followed by
// garbage can never decode cleanly.
//
// bmaclint:noalloc
func Unmarshal(data []byte) (*Block, error) {
	b := &Block{} // bmaclint:allow allocbound (the decoded block itself: one allocation per block)
	r := wire.NewReader(data)
	var seenHeader, seenData, seenMeta bool
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		if wt != wire.TypeBytes {
			return nil, fmt.Errorf("%w: block field %d has wire type %d", ErrMalformed, num, wt)
		}
		switch num {
		case fBlockHeader:
			if seenHeader {
				return nil, fmt.Errorf("%w: duplicate block header field", ErrMalformed)
			}
			seenHeader = true
			h, err := UnmarshalHeader(r.Bytes())
			if err != nil {
				return nil, err
			}
			b.Header = *h
		case fBlockData:
			if seenData {
				return nil, fmt.Errorf("%w: duplicate block data field", ErrMalformed)
			}
			seenData = true
			dr := wire.NewReader(r.Bytes())
			for {
				dn, dwt, dok := dr.Next()
				if !dok {
					break
				}
				if dn != fDataEnvelope {
					dr.Skip(dwt)
					continue
				}
				env, err := DecodeEnvelope(dr.Bytes())
				if err != nil {
					return nil, err
				}
				b.Envelopes = append(b.Envelopes, env)
			}
			if err := dr.Err(); err != nil {
				return nil, fmt.Errorf("%w: block data: %v", ErrMalformed, err)
			}
		case fBlockMeta:
			if seenMeta {
				return nil, fmt.Errorf("%w: duplicate block metadata field", ErrMalformed)
			}
			seenMeta = true
			m, err := unmarshalMetadata(r.Bytes())
			if err != nil {
				return nil, err
			}
			b.Metadata = *m
		default:
			return nil, fmt.Errorf("%w: unknown top-level block field %d", ErrMalformed, num)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: block: %v", ErrMalformed, err)
	}
	return b, nil
}

// UnmarshalCopy decodes a complete block into structures that do NOT alias
// data: the input is copied once up front, so the caller may mutate or
// recycle its buffer immediately. This is the copy-on-write escape hatch of
// the zero-copy contract; the hot commit path uses Unmarshal.
func UnmarshalCopy(data []byte) (*Block, error) {
	return Unmarshal(append([]byte(nil), data...))
}

// --- hashing and signing contracts ---

// DataHash computes the block data hash: SHA-256 over the concatenation of
// the marshaled envelopes, as Fabric hashes BlockData. The marshal staging
// buffer is pooled — it never escapes this function.
func DataHash(envelopes []Envelope) []byte {
	n := 0
	for i := range envelopes {
		n += SizeEnvelope(&envelopes[i])
	}
	buf := wire.GetBuf(n)
	for i := range envelopes {
		buf = AppendEnvelope(buf, &envelopes[i])
	}
	d := fabcrypto.HashSlice(buf)
	wire.PutBuf(buf)
	return d
}

// HeaderHash computes the block hash (digest of the marshaled header).
func HeaderHash(h *Header) []byte {
	return fabcrypto.HashSlice(MarshalHeader(h))
}

// OrdererSigningBytes returns the bytes the orderer signs for a block:
// marshaled header || nonce || creator cert.
func OrdererSigningBytes(h *Header, nonce, creator []byte) []byte {
	hdr := MarshalHeader(h)
	out := make([]byte, 0, len(hdr)+len(nonce)+len(creator))
	out = append(out, hdr...)
	out = append(out, nonce...)
	out = append(out, creator...)
	return out
}

// EndorsementDigest is the endorsement signing contract: the digest an
// endorser signs and every validation path checks, SHA-256 over the marshaled
// proposal response payload followed by the endorser's certificate, as in
// Fabric: the digest of EndorsementMessage.
func EndorsementDigest(proposalResponseBytes, endorserCert []byte) [fabcrypto.HashSize]byte {
	m := EndorsementMessage(proposalResponseBytes, endorserCert)
	return m.Hash()
}

// EndorsementMessage is what an endorsement digest covers, for hashing in a
// fabcrypto.HashBatch: the two parts are hashed where they lie, never
// concatenated.
func EndorsementMessage(proposalResponseBytes, endorserCert []byte) fabcrypto.Message {
	return fabcrypto.Message{A: proposalResponseBytes, B: endorserCert}
}

// CommitHash chains the commit hash: SHA-256(prev commit hash || data hash
// || validation flags). Both the software validator and the BMac pipeline
// must produce identical values; the integration tests compare them.
func CommitHash(prev []byte, dataHash []byte, flags []byte) []byte {
	var h fabcrypto.StreamHasher
	h.Write(prev)
	h.Write(dataHash)
	h.Write(flags)
	return h.Sum()
}

// ComputeTxID derives a transaction ID from the creator nonce and
// certificate, like Fabric: hex(SHA-256(nonce || creator)).
func ComputeTxID(nonce, creator []byte) string {
	var h fabcrypto.StreamHasher
	h.Write(nonce)
	h.Write(creator)
	return hex.EncodeToString(h.Sum())
}

// EnvelopeTxID extracts the transaction ID from an envelope by decoding
// only the channel header — enough for delivery-side bookkeeping (e.g.
// matching committed transactions back to their submission times) without
// walking the full payload nesting. A repeated channel header is decided by
// its last occurrence, every occurrence checked, as TxView and the struct
// decoders decide it.
func EnvelopeTxID(env *Envelope) (string, error) {
	var ch *ChannelHeader
	r := wire.NewReader(env.PayloadBytes)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		if num != fPayloadChannelHdr {
			r.Skip(wt)
			continue
		}
		var err error
		if ch, err = UnmarshalChannelHeader(r.Bytes()); err != nil {
			return "", err
		}
	}
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("%w: payload: %v", ErrMalformed, err)
	}
	if ch == nil {
		return "", fmt.Errorf("%w: payload missing channel header", ErrMalformed)
	}
	return ch.TxID, nil
}

// FlagsEqual reports whether two validation flag arrays match exactly.
func FlagsEqual(a, b []byte) bool { return bytes.Equal(a, b) }

// CountValid returns the number of transactions flagged Valid.
func CountValid(flags []byte) int {
	n := 0
	for _, f := range flags {
		if ValidationCode(f) == Valid {
			n++
		}
	}
	return n
}
