package block

import (
	"fmt"
	"iter"

	"bmac/internal/wire"
)

// TxView is one transaction read straight off its envelope payload bytes,
// the way the paper's block processor reads the fields it needs off the
// wire instead of building an object tree. NewTxView walks the whole nest
// once — Payload, Transaction, ChaincodeActionPayload, EndorsedAction, and
// the ProposalResponsePayload the endorsers signed down to its read-write
// set — accepting and rejecting exactly what UnmarshalTransactionPayload
// followed by UnmarshalProposalResponsePayload accept and reject, and
// records where the fields the validation path reads lie. The accessors
// interpret those bytes only when asked, and neither the walk nor any
// accessor allocates.
//
// Every slice a view returns aliases the payload (see the package comment's
// aliasing contract). A key that has to outlive the payload, such as one a
// state database stores, must be copied out of it: AppendWrites does so for
// a write set.
type TxView struct {
	creator   []byte // the payload signature header's creator certificate
	txID      []byte // the channel header's transaction ID
	chaincode []byte // the channel header's chaincode name
	prp       []byte // the proposal response payload bytes the endorsers signed
	action    []byte // the endorsed action message: prp, then the endorsements
	rwset     []byte // the read-write set message inside prp

	nEnd, nReads, nWrites int
}

// NewTxView validates an envelope payload and returns its view. The
// encoding rules are the struct decoders': a field they read as bytes or
// as a varint must have that wire type, any other field is skipped by its
// wire type, a singular field that occurs more than once is decided by its
// last occurrence (a message wholesale, after every occurrence has been
// checked), and the transaction's first action is its only one. The view
// aliases payload.
//
// bmaclint:noalloc
func NewTxView(payload []byte) (TxView, error) {
	var v TxView
	if err := v.scanPayload(payload); err != nil {
		return TxView{}, err
	}
	if err := v.scanProposalResponse(v.prp); err != nil {
		return TxView{}, err
	}
	return v, nil
}

// Creator is the transaction creator's certificate (DER).
func (v *TxView) Creator() []byte { return v.creator }

// TxID is the transaction ID of the channel header.
func (v *TxView) TxID() []byte { return v.txID }

// ChaincodeName names the chaincode in the channel header, the one whose
// endorsement policy applies.
func (v *TxView) ChaincodeName() []byte { return v.chaincode }

// ProposalResponseBytes is the marshaled ProposalResponsePayload every
// endorsement signs.
func (v *TxView) ProposalResponseBytes() []byte { return v.prp }

// NumEndorsements is how many endorsements the transaction carries.
func (v *TxView) NumEndorsements() int { return v.nEnd }

// NumReads is the size of the read set.
func (v *TxView) NumReads() int { return v.nReads }

// NumWrites is the size of the write set.
func (v *TxView) NumWrites() int { return v.nWrites }

// Endorsement returns the i-th endorsement, 0 ≤ i < NumEndorsements, in the
// order they were marshaled. It panics when i is out of range.
func (v *TxView) Endorsement(i int) Endorsement {
	r := wire.NewReader(v.action)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		if num != fEAEndorsement {
			r.Skip(wt)
			continue
		}
		data := r.Bytes()
		if i > 0 {
			i--
			continue
		}
		var e Endorsement
		er := wire.NewReader(data)
		for num, wt, ok := er.Next(); ok; num, wt, ok = er.Next() {
			switch num {
			case fEndorserCert:
				e.Endorser = er.Bytes()
			case fEndorserSig:
				e.Signature = er.Bytes()
			default:
				er.Skip(wt)
			}
		}
		return e
	}
	panic("block: endorsement index out of range")
}

// Reads yields the read set in order: each key and the version endorsement
// observed.
func (v *TxView) Reads() iter.Seq2[[]byte, Version] {
	rw := v.rwset
	return func(yield func([]byte, Version) bool) {
		r := wire.NewReader(rw)
		for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
			if num != fRWSetRead {
				r.Skip(wt)
				continue
			}
			var key []byte
			var ver Version
			er := wire.NewReader(r.Bytes())
			for num, wt, ok := er.Next(); ok; num, wt, ok = er.Next() {
				switch num {
				case fReadKey:
					key = er.Bytes()
				case fReadBlockNum:
					ver.BlockNum = er.Uint()
				case fReadTxNum:
					ver.TxNum = er.Uint()
				default:
					er.Skip(wt)
				}
			}
			if !yield(key, ver) {
				return
			}
		}
	}
}

// Writes yields the write set in order: each key and its value.
func (v *TxView) Writes() iter.Seq2[[]byte, []byte] {
	rw := v.rwset
	return func(yield func([]byte, []byte) bool) {
		r := wire.NewReader(rw)
		for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
			if num != fRWSetWrite {
				r.Skip(wt)
				continue
			}
			var key, val []byte
			er := wire.NewReader(r.Bytes())
			for num, wt, ok := er.Next(); ok; num, wt, ok = er.Next() {
				switch num {
				case fWriteKey:
					key = er.Bytes()
				case fWriteValue:
					val = er.Bytes()
				default:
					er.Skip(wt)
				}
			}
			if !yield(key, val) {
				return
			}
		}
	}
}

// AppendWrites appends the write set to dst as KVWrites a state database
// can apply: each key copied into a string of its own, each value still
// aliasing the payload (statedb.KVS.WriteBatch copies values).
func (v *TxView) AppendWrites(dst []KVWrite) []KVWrite {
	for key, val := range v.Writes() {
		dst = append(dst, KVWrite{Key: string(key), Value: val})
	}
	return dst
}

// --- the validating walk ---
//
// Each scan mirrors the struct decoder of its message field for field:
// the same wire-type checks (a known field read as bytes or as a varint,
// anything else skipped by its wire type) and the same last-occurrence
// rule, so that accept and reject agree on every input (FuzzTxView).

func (v *TxView) scanPayload(data []byte) error {
	r := wire.NewReader(data)
	var txData []byte
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fPayloadChannelHdr:
			if err := v.scanChannelHeader(r.Bytes()); err != nil {
				return err
			}
		case fPayloadSigHdr:
			if err := v.scanSignatureHeader(r.Bytes()); err != nil {
				return err
			}
		case fPayloadData:
			txData = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrMalformed, err)
	}
	if txData == nil {
		return fmt.Errorf("%w: payload missing transaction data", ErrMalformed)
	}

	tr := wire.NewReader(txData)
	var action []byte
	for num, wt, ok := tr.Next(); ok; num, wt, ok = tr.Next() {
		if num == fTxActions {
			action = tr.Bytes()
			break
		}
		tr.Skip(wt)
	}
	if tr.Err() != nil || action == nil {
		return fmt.Errorf("%w: transaction has no action", ErrMalformed)
	}

	ar := wire.NewReader(action)
	for num, wt, ok := ar.Next(); ok; num, wt, ok = ar.Next() {
		if num == fTxActionPayload {
			if err := v.scanActionPayload(ar.Bytes()); err != nil {
				return err
			}
			continue
		}
		ar.Skip(wt) // the action header duplicates the payload's signature header
	}
	if err := ar.Err(); err != nil {
		return fmt.Errorf("%w: transaction action: %v", ErrMalformed, err)
	}
	return nil
}

func (v *TxView) scanChannelHeader(data []byte) error {
	var txID, cc []byte
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fChHdrType, fChHdrEpoch:
			r.Uint()
		case fChHdrTxID:
			txID = r.Bytes()
		case fChHdrChannel:
			r.Bytes()
		case fChHdrCC:
			cc = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: channel header: %v", ErrMalformed, err)
	}
	v.txID, v.chaincode = txID, cc
	return nil
}

func (v *TxView) scanSignatureHeader(data []byte) error {
	var creator []byte
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fSigHdrCreator:
			creator = r.Bytes()
		case fSigHdrNonce:
			r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: signature header: %v", ErrMalformed, err)
	}
	v.creator = creator
	return nil
}

// scanActionPayload checks a ChaincodeActionPayload and its endorsed
// action, and takes the action's proposal response and endorsements.
func (v *TxView) scanActionPayload(data []byte) error {
	var prp, action []byte
	n := 0
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fCAPProposal:
			r.Bytes()
		case fCAPAction:
			var err error
			action = r.Bytes()
			if prp, n, err = scanEndorsedAction(action); err != nil {
				return err
			}
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: chaincode action payload: %v", ErrMalformed, err)
	}
	v.prp, v.action, v.nEnd = prp, action, n
	return nil
}

// scanEndorsedAction checks an EndorsedAction, returning its proposal
// response bytes and its number of endorsements.
func scanEndorsedAction(data []byte) (prp []byte, n int, err error) {
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fEAProposalResponse:
			prp = r.Bytes()
		case fEAEndorsement:
			if err := scanFields(r.Bytes(), fEndorserCert, fEndorserSig, 0, 0); err != nil {
				return nil, 0, fmt.Errorf("%w: endorsement: %v", ErrMalformed, err)
			}
			n++
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: endorsed action: %v", ErrMalformed, err)
	}
	return prp, n, nil
}

// scanProposalResponse checks the ProposalResponsePayload down to its
// read-write set, and takes the set.
func (v *TxView) scanProposalResponse(data []byte) error {
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fPRPHash:
			r.Bytes()
		case fPRPExtension:
			if err := v.scanChaincodeAction(r.Bytes()); err != nil {
				return err
			}
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: proposal response: %v", ErrMalformed, err)
	}
	return nil
}

func (v *TxView) scanChaincodeAction(data []byte) error {
	var rwset []byte
	reads, writes := 0, 0
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fCCAResults:
			var err error
			rwset = r.Bytes()
			if reads, writes, err = scanRWSet(rwset); err != nil {
				return err
			}
		case fCCARespCode:
			r.Uint()
		case fCCARespData, fCCAName:
			r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: chaincode action: %v", ErrMalformed, err)
	}
	v.rwset, v.nReads, v.nWrites = rwset, reads, writes
	return nil
}

// scanRWSet checks a read-write set and counts its reads and writes.
func scanRWSet(data []byte) (reads, writes int, err error) {
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fRWSetRead:
			if err := scanFields(r.Bytes(), fReadKey, 0, fReadBlockNum, fReadTxNum); err != nil {
				return 0, 0, fmt.Errorf("%w: kvread: %v", ErrMalformed, err)
			}
			reads++
		case fRWSetWrite:
			if err := scanFields(r.Bytes(), fWriteKey, fWriteValue, 0, 0); err != nil {
				return 0, 0, fmt.Errorf("%w: kvwrite: %v", ErrMalformed, err)
			}
			writes++
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("%w: rwset: %v", ErrMalformed, err)
	}
	return reads, writes, nil
}

// scanFields checks a flat message whose known fields are the bytes fields
// b1 and b2 and the varint fields u1 and u2 (0: none), every other field
// skipped by its wire type.
func scanFields(data []byte, b1, b2, u1, u2 int) error {
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case b1, b2:
			r.Bytes()
		case u1, u2:
			r.Uint()
		default:
			r.Skip(wt)
		}
	}
	return r.Err()
}
