package block

import (
	"errors"
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
	acHeader  []byte // the action header, Fabric's copy of the signature header
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

// ActionCreator is the creator certificate of the action header, Fabric's
// copy of the payload's signature header, or nil. No decoder reads the
// header, so the view never rejects on it and parses it only when asked:
// the creator is its last length-delimited occurrence in the last header,
// nil when that header does not parse. AppendIdentities returns the same
// field.
func (v *TxView) ActionCreator() []byte { return actionCreator(v.acHeader) }

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
// order they were marshaled. It walks the endorsed action from its start;
// Endorsements reads them all in one walk. It panics when i is out of range.
func (v *TxView) Endorsement(i int) Endorsement {
	for e := range v.Endorsements() {
		if i == 0 {
			return e
		}
		i--
	}
	panic("block: endorsement index out of range")
}

// Endorsements yields the endorsements in the order they were marshaled.
func (v *TxView) Endorsements() iter.Seq[Endorsement] {
	action := v.action
	return func(yield func(Endorsement) bool) {
		r := wire.NewReader(action)
		for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
			if num != fEAEndorsement {
				r.Skip(wt)
				continue
			}
			e, _ := decodeEndorsement(r.Bytes()) // bmaclint:allow errdiscard (checked by the walk)
			if !yield(e) {
				return
			}
		}
	}
}

// decodeEndorsement reads an endorsement message.
func decodeEndorsement(data []byte) (Endorsement, error) {
	var e Endorsement
	r := wire.NewReader(data)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fEndorserCert:
			e.Endorser = r.Bytes()
		case fEndorserSig:
			e.Signature = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	return e, r.Err()
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

// --- the identity walk ---

// AppendIdentities appends to dst the identity certificates of a
// transaction payload: the signature header's creator, the action header's
// creator, then each endorser's, nil where one is absent. On a payload
// NewTxView accepts they are its view's Creator, ActionCreator and
// Endorsements. The walk reads only the fields on its way to them, each by
// its last occurrence — not the channel header, not the proposal response
// the endorsers signed — so it costs a fraction of NewTxView and accepts
// payloads the view rejects. It errors, dst as it was, when a field on its
// way does not parse. Every certificate aliases payload.
//
// bmaclint:noalloc
func AppendIdentities(dst [][]byte, payload []byte) ([][]byte, error) {
	var sigHdr, txData, acHeader, actionPayload, endorsed []byte
	r := wire.NewReader(payload)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		switch num {
		case fPayloadSigHdr:
			sigHdr = r.Bytes()
		case fPayloadData:
			txData = r.Bytes()
		default:
			r.Skip(wt)
		}
	}
	creator, cerr := scanSignatureHeader(sigHdr)
	action, aerr := firstAction(txData)
	ar := wire.NewReader(action)
	for num, wt, ok := ar.Next(); ok; num, wt, ok = ar.Next() {
		switch {
		case num == fTxActionPayload:
			actionPayload = ar.Bytes()
		case num == fTxActionHeader && wt == wire.TypeBytes:
			acHeader = ar.Bytes()
		default:
			ar.Skip(wt)
		}
	}
	pr := wire.NewReader(actionPayload)
	for num, wt, ok := pr.Next(); ok; num, wt, ok = pr.Next() {
		if num == fCAPAction {
			endorsed = pr.Bytes()
			continue
		}
		pr.Skip(wt)
	}
	if r.Err() != nil || cerr != nil || aerr != nil || ar.Err() != nil || pr.Err() != nil {
		return dst, fmt.Errorf("%w: identity walk: %v", ErrMalformed, errors.Join(r.Err(), cerr, aerr, ar.Err(), pr.Err()))
	}

	n := len(dst)
	dst = append(dst, creator, actionCreator(acHeader))
	er := wire.NewReader(endorsed)
	for num, wt, ok := er.Next(); ok; num, wt, ok = er.Next() {
		if num != fEAEndorsement {
			er.Skip(wt)
			continue
		}
		e, err := decodeEndorsement(er.Bytes())
		if err != nil {
			return dst[:n], fmt.Errorf("%w: endorsement: %v", ErrMalformed, err)
		}
		dst = append(dst, e.Endorser)
	}
	if err := er.Err(); err != nil {
		return dst[:n], fmt.Errorf("%w: endorsed action: %v", ErrMalformed, err)
	}
	return dst, nil
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
			creator, err := scanSignatureHeader(r.Bytes())
			if err != nil {
				return err
			}
			v.creator = creator
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

	action, err := firstAction(txData)
	if err != nil {
		return err
	}

	ar := wire.NewReader(action)
	for num, wt, ok := ar.Next(); ok; num, wt, ok = ar.Next() {
		switch {
		case num == fTxActionPayload:
			if err := v.scanActionPayload(ar.Bytes()); err != nil {
				return err
			}
		case num == fTxActionHeader && wt == wire.TypeBytes:
			v.acHeader = ar.Bytes()
		default:
			ar.Skip(wt)
		}
	}
	if err := ar.Err(); err != nil {
		return fmt.Errorf("%w: transaction action: %v", ErrMalformed, err)
	}
	return nil
}

// firstAction is a transaction's first action, its only one.
func firstAction(txData []byte) ([]byte, error) {
	r := wire.NewReader(txData)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		if num == fTxActions {
			if action := r.Bytes(); action != nil {
				return action, nil
			}
			break
		}
		r.Skip(wt)
	}
	return nil, fmt.Errorf("%w: transaction has no action", ErrMalformed)
}

// actionCreator is the creator field of an action header: its last
// length-delimited occurrence, or nil when the header does not parse. The
// struct decoders skip the header (it duplicates the payload's signature
// header), so nothing here rejects.
func actionCreator(hdr []byte) []byte {
	var creator []byte
	r := wire.NewReader(hdr)
	for num, wt, ok := r.Next(); ok; num, wt, ok = r.Next() {
		if num == fSigHdrCreator && wt == wire.TypeBytes {
			creator = r.Bytes()
			continue
		}
		r.Skip(wt)
	}
	if r.Err() != nil {
		return nil
	}
	return creator
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

// scanSignatureHeader checks a SignatureHeader and returns its creator.
func scanSignatureHeader(data []byte) ([]byte, error) {
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
		return nil, fmt.Errorf("%w: signature header: %v", ErrMalformed, err)
	}
	return creator, nil
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
