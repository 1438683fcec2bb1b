package bmacproto

import (
	"fmt"

	"bmac/internal/block"
	"bmac/internal/wire"
)

// This file is the envelope layout the protocol needs: where a marshalled
// envelope keeps its payload and signature, and below the payload the
// identity fields the sender's DataRemover replaces with locators. The
// receiver's DataExtractor reads every other field through block.TxView.

// field numbers duplicated from the block package wire contract; the
// hardware is generated against the same schema. This table and locate are
// the sender's walk down to the identity fields; the receiver takes only
// the envelope's two top-level fields from it.
const (
	xEnvPayload = 1
	xEnvSig     = 2

	xPayloadChHdr  = 1
	xPayloadSigHdr = 2
	xPayloadData   = 3

	xSigHdrCreator = 1

	xTxAction        = 1
	xTxActionHeader  = 1
	xTxActionPayload = 2

	xCAPAction = 2

	xEAPRP = 1
	xEAEnd = 2

	xEndCert = 1
	xEndSig  = 2
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
	creator, actionCreator span // payload.signature_header.creator; payload.data.action.header.creator (optional)
	ends                   []endLayout
}

// endLayout is one endorsed_action.endorsements element.
type endLayout struct{ endorser, signature span }

// locate walks env once, schema-directed, from its payload field down. It
// reuses l.ends.
func (l *txLayout) locate(env []byte, payload span) error {
	*l = txLayout{ends: l.ends[:0]}
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
	if _, ok = field(env, ea, xEAPRP); !ok {
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

// envelopeFields reads the payload and signature of reconstructed envelope
// bytes: where the packet's pointer annotations put them, or else where a
// scan finds them. A missing field reads as empty, as block.UnmarshalEnvelope
// reads it. The envelope aliases env.
func envelopeFields(env []byte, pkt *Packet) block.Envelope {
	whole := span{0, len(env)}
	payload, ok := pointerSpan(pkt, PtrPayload, len(env))
	if !ok {
		payload, _ = field(env, whole, xEnvPayload)
	}
	sig, ok := pointerSpan(pkt, PtrEnvelopeSignature, len(env))
	if !ok {
		sig, _ = field(env, whole, xEnvSig)
	}
	return block.Envelope{PayloadBytes: payload.of(env), Signature: sig.of(env)}
}
