package bmacproto

import (
	"fmt"

	"bmac/internal/block"
	"bmac/internal/wire"
)

// This file is the DataExtractor/DataProcessor pair of the
// protocol_processor (paper Figure 5b): given reconstructed section bytes
// and the packet's pointer annotations, it pulls out exactly the fields the
// block processor needs — signatures, creator, endorsements, read and write
// sets — using targeted scans instead of a full recursive unmarshal.

// txExtract is everything the hardware needs from one transaction section.
type txExtract struct {
	PayloadBytes []byte // the exact bytes the client signed
	Signature    []byte // client DER signature
	CreatorCert  []byte
	CCName       string
	PRPBytes     []byte // proposal response payload (endorsement signing base)
	Endorsements []block.Endorsement
	Reads        []block.KVRead
	Writes       []block.KVWrite
}

// field numbers duplicated from the block package wire contract; the
// hardware is generated against the same schema. This table and locate are
// the package's only copy of the envelope layout: the sender's DataRemover
// and the receiver's DataExtractor both descend through them.
const (
	xEnvPayload = 1
	xEnvSig     = 2

	xPayloadChHdr  = 1
	xPayloadSigHdr = 2
	xPayloadData   = 3

	xChHdrCC = 4

	xSigHdrCreator = 1

	xTxAction        = 1
	xTxActionHeader  = 1
	xTxActionPayload = 2

	xCAPAction = 2

	xEAPRP = 1
	xEAEnd = 2

	xEndCert = 1
	xEndSig  = 2

	xPRPExt = 2

	xCCAResults = 1

	xRWRead  = 1
	xRWWrite = 2

	xReadKey      = 1
	xReadBlockNum = 2
	xReadTxNum    = 3

	xWriteKey = 1
	xWriteVal = 2
)

// span is the byte range of one field's payload, in absolute offsets of
// the section it was found in. The zero span means the field is absent.
type span struct{ off, n int }

func (s span) of(sec []byte) []byte { return sec[s.off : s.off+s.n] }

// field descends from the message at in along a path of field numbers,
// taking the first length-delimited occurrence at every level.
func field(sec []byte, in span, path ...int) (span, bool) {
	for _, num := range path {
		off, n, ok := wire.FieldOffset(in.of(sec), num)
		if !ok {
			return span{}, false
		}
		in = span{in.off + off, n}
	}
	return in, true
}

// subField returns the payload of the first length-delimited field num in
// msg, or nil.
func subField(msg []byte, num int) []byte {
	off, l, ok := wire.FieldOffset(msg, num)
	if !ok {
		return nil
	}
	return msg[off : off+l]
}

// txLayout is where one marshalled envelope keeps, below its payload field,
// the fields the protocol touches. The three kinds of identity field —
// creator, its copy in the action header (Fabric repeats the signature
// header there) and every endorser — are what the sender replaces with
// locators.
type txLayout struct {
	chaincode              span // payload.channel_header.chaincode (optional)
	creator, actionCreator span // payload.signature_header.creator; payload.data.action.header.creator (optional)
	prp                    span // endorsed_action.proposal_response_payload
	ends                   []endLayout
}

// endLayout is one endorsed_action.endorsements element.
type endLayout struct{ endorser, signature span }

// locate walks env once, schema-directed, from its payload field down. It
// reuses l.ends.
func (l *txLayout) locate(env []byte, payload span) error {
	*l = txLayout{ends: l.ends[:0]}
	l.chaincode, _ = field(env, payload, xPayloadChHdr, xChHdrCC)
	var ok bool
	if l.creator, ok = field(env, payload, xPayloadSigHdr, xSigHdrCreator); !ok {
		return fmt.Errorf("bmacproto: tx section missing creator")
	}
	txData, ok := field(env, payload, xPayloadData)
	if !ok {
		return fmt.Errorf("bmacproto: tx section missing transaction data")
	}
	action, ok := field(env, txData, xTxAction)
	if !ok {
		return fmt.Errorf("bmacproto: transaction has no action")
	}
	l.actionCreator, _ = field(env, action, xTxActionHeader, xSigHdrCreator)
	cap2, ok := field(env, action, xTxActionPayload)
	if !ok {
		return fmt.Errorf("bmacproto: action has no payload")
	}
	ea, ok := field(env, cap2, xCAPAction)
	if !ok {
		return fmt.Errorf("bmacproto: missing endorsed action")
	}
	if l.prp, ok = field(env, ea, xEAPRP); !ok {
		return fmt.Errorf("bmacproto: missing proposal response payload")
	}

	// Endorsements: iterate the repeated field.
	r := wire.NewReader(ea.of(env))
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		if num != xEAEnd {
			r.Skip(wt)
			continue
		}
		n := len(r.Bytes())
		e := span{ea.off + r.Pos() - n, n}
		endorser, ok1 := field(env, e, xEndCert)
		sig, ok2 := field(env, e, xEndSig)
		if !ok1 || !ok2 {
			return fmt.Errorf("bmacproto: malformed endorsement")
		}
		l.ends = append(l.ends, endLayout{endorser, sig})
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("bmacproto: endorsed action scan: %w", err)
	}
	return nil
}

// pointerSpan returns the range a pointer annotation names, if the packet
// carries one that lies inside a section of n bytes.
func pointerSpan(pkt *Packet, f PointerField, n int) (span, bool) {
	ptr, ok := pkt.FindPointer(f)
	if !ok || uint64(ptr.Offset)+uint64(ptr.Length) > uint64(n) {
		return span{}, false
	}
	return span{int(ptr.Offset), int(ptr.Length)}, true
}

// extractTx pulls the validation-relevant fields from reconstructed
// envelope bytes, using pointer annotations for the top-level fields when
// available.
func extractTx(envBytes []byte, pkt *Packet) (*txExtract, error) {
	// Top level: pointer annotations let the hardware skip the scan.
	whole := span{0, len(envBytes)}
	payload, ok1 := pointerSpan(pkt, PtrPayload, len(envBytes))
	if !ok1 {
		payload, ok1 = field(envBytes, whole, xEnvPayload)
	}
	signature, ok2 := pointerSpan(pkt, PtrEnvelopeSignature, len(envBytes))
	if !ok2 {
		signature, ok2 = field(envBytes, whole, xEnvSig)
	}
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("bmacproto: tx section missing payload or signature")
	}
	var l txLayout
	if err := l.locate(envBytes, payload); err != nil {
		return nil, err
	}

	x := &txExtract{
		PayloadBytes: payload.of(envBytes),
		Signature:    signature.of(envBytes),
		CCName:       string(l.chaincode.of(envBytes)),
		CreatorCert:  l.creator.of(envBytes),
		PRPBytes:     l.prp.of(envBytes),
	}
	for _, e := range l.ends {
		x.Endorsements = append(x.Endorsements, block.Endorsement{
			Endorser:  e.endorser.of(envBytes),
			Signature: e.signature.of(envBytes),
		})
	}

	// prp -> extension (chaincode action) -> results (rwset)
	if rw, ok := field(envBytes, l.prp, xPRPExt, xCCAResults); ok {
		if err := extractRWSet(rw.of(envBytes), x); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func extractRWSet(rw []byte, x *txExtract) error {
	r := wire.NewReader(rw)
	for {
		num, wt, ok := r.Next()
		if !ok {
			break
		}
		switch num {
		case xRWRead:
			entry := r.Bytes()
			var kr block.KVRead
			er := wire.NewReader(entry)
			for {
				en, ewt, eok := er.Next()
				if !eok {
					break
				}
				switch en {
				case xReadKey:
					kr.Key = er.String()
				case xReadBlockNum:
					kr.Version.BlockNum = er.Uint()
				case xReadTxNum:
					kr.Version.TxNum = er.Uint()
				default:
					er.Skip(ewt)
				}
			}
			if err := er.Err(); err != nil {
				return fmt.Errorf("bmacproto: rwset read entry: %w", err)
			}
			x.Reads = append(x.Reads, kr)
		case xRWWrite:
			entry := r.Bytes()
			var kw block.KVWrite
			er := wire.NewReader(entry)
			for {
				en, ewt, eok := er.Next()
				if !eok {
					break
				}
				switch en {
				case xWriteKey:
					kw.Key = er.String()
				case xWriteVal:
					kw.Value = er.Bytes()
				default:
					er.Skip(ewt)
				}
			}
			if err := er.Err(); err != nil {
				return fmt.Errorf("bmacproto: rwset write entry: %w", err)
			}
			x.Writes = append(x.Writes, kw)
		default:
			r.Skip(wt)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("bmacproto: rwset scan: %w", err)
	}
	return nil
}
