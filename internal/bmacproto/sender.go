package bmacproto

import (
	"bytes"
	"fmt"
	"sync"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/wire"
)

// header section payload fields.
const (
	fHdrSecHeader = 1
	fHdrSecCert   = 2
	fHdrSecNonce  = 3
	fHdrSecSig    = 4
)

// metadata section payload fields.
const (
	fMetaSecFlags  = 1
	fMetaSecCommit = 2
)

// PacketSink consumes encoded packets; implementations include UDP sockets
// and the in-memory link model used by benchmarks.
// SendPacket must not keep p, nor write to it, after it returns: as with
// io.Writer, the sender rewrites p with the next packet.
type PacketSink interface {
	SendPacket(p []byte) error
}

// SinkFunc adapts a function to the PacketSink interface.
type SinkFunc func(p []byte) error

// SendPacket implements PacketSink.
func (f SinkFunc) SendPacket(p []byte) error { return f(p) }

// SendStats reports what one SendBlock call transmitted.
type SendStats struct {
	Packets      int
	Bytes        int // total wire bytes including L7 headers
	PayloadBytes int // section payload bytes after identity removal
	Removed      int // identity bytes removed
}

// Sender is the software half of the BMac protocol, called by the orderer
// right before it hands a block to Gossip. It maintains the identity cache
// in sync with the receiver.
type Sender struct {
	cache *identity.Cache
	sink  PacketSink
}

// NewSender creates a sender that writes packets to sink. The cache is
// typically preloaded from the network configuration.
func NewSender(cache *identity.Cache, sink PacketSink) *Sender {
	return &Sender{cache: cache, sink: sink}
}

// RegisterIdentity tells the hardware receiver about an identity with a
// cache-sync packet and then enters it in the sender's cache, from where
// EncodeBlock strips it. On error nothing has changed: a certificate the
// receiver could not parse is never announced, and one whose announcement
// the sink refused is never stripped.
func (s *Sender) RegisterIdentity(id identity.EncodedID, cert []byte) error {
	if _, err := fabcrypto.PublicKeyFromCert(cert); err != nil {
		return fmt.Errorf("register %s: %w", id, err)
	}
	if s.sink != nil {
		pkt := Packet{
			Type:    SectionCacheSync,
			Seq:     uint16(id),
			Payload: cert,
		}
		if err := s.sink.SendPacket(pkt.Encode()); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
	}
	return s.cache.Put(id, cert)
}

// RegisterNetwork registers every identity of the network.
func (s *Sender) RegisterNetwork(n *identity.Network) error {
	for _, id := range n.Identities() {
		if err := s.RegisterIdentity(id.ID, id.Cert); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBlock splits a block into protocol packets without sending them.
// Packet order: header, tx 0..n-1, metadata. Each packet is a buffer of its
// own.
func (s *Sender) EncodeBlock(b *block.Block) ([][]byte, SendStats, error) {
	packets := make([][]byte, 0, len(b.Envelopes)+2)
	stats, err := s.encode(b, func(p []byte) error {
		packets = append(packets, bytes.Clone(p))
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return packets, stats, nil
}

// SendBlock encodes and transmits a block, each packet as soon as it is
// encoded. The orderer calls this right before handing the same block to
// the Gossip path, so software-only peers remain compatible.
func (s *Sender) SendBlock(b *block.Block) (SendStats, error) {
	if s.sink == nil {
		return SendStats{}, fmt.Errorf("bmacproto: sender has no sink")
	}
	return s.encode(b, func(p []byte) error {
		if err := s.sink.SendPacket(p); err != nil {
			return fmt.Errorf("send packet: %w", err)
		}
		return nil
	})
}

// encoder is an encoding's working memory, reused from packet to packet and,
// through encoders, from block to block.
type encoder struct {
	env, sec, pkt []byte // the marshalled section, its stripped bytes, the encoded packet
	locs          []Locator
	ptrs          []Pointer
	fields        []span
	lay           txLayout
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode splits b into packets and hands each to emit, in the order
// EncodeBlock returns them. The bytes emit sees are the encoder's own and are
// rewritten by the next packet.
func (s *Sender) encode(b *block.Block, emit func(p []byte) error) (SendStats, error) {
	numTxs := len(b.Envelopes)
	if numTxs > 0xffff {
		return SendStats{}, fmt.Errorf("bmacproto: block %d has %d txs (max 65535)", b.Header.Number, numTxs)
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	var stats SendStats
	send := func(p *Packet, origLen int) error {
		e.pkt = p.AppendTo(e.pkt[:0])
		stats.Packets++
		stats.Bytes += len(e.pkt)
		stats.PayloadBytes += len(p.Payload)
		stats.Removed += origLen - len(p.Payload)
		return emit(e.pkt)
	}

	// Header section: block header plus the orderer signature triple, so
	// the receiver can issue the block verification request immediately.
	hdr := wire.AppendBytes(e.env[:0], fHdrSecHeader, block.MarshalHeader(&b.Header))
	hdr = wire.AppendBytes(hdr, fHdrSecCert, b.Metadata.Signature.Creator)
	e.fields = append(e.fields[:0], span{len(hdr) - len(b.Metadata.Signature.Creator), len(b.Metadata.Signature.Creator)})
	hdr = wire.AppendBytes(hdr, fHdrSecNonce, b.Metadata.Signature.Nonce)
	hdr = wire.AppendBytes(hdr, fHdrSecSig, b.Metadata.Signature.Signature)
	e.env = hdr
	e.sec, e.locs = stripIdentities(e.sec[:0], e.locs[:0], hdr, e.fields, s.cache)
	hdrPkt := Packet{
		Type:     SectionHeader,
		BlockNum: b.Header.Number,
		NumTxs:   uint16(numTxs),
		Locators: e.locs,
		Pointers: e.ptrs[:0],
		Payload:  e.sec,
	}
	for _, f := range [...]struct {
		num int
		ptr PointerField
	}{{fHdrSecHeader, PtrHeaderBytes}, {fHdrSecSig, PtrMetaSignature}, {fHdrSecNonce, PtrMetaNonce}} {
		if off, l, ok := wire.FieldOffset(hdr, f.num); ok {
			hdrPkt.Pointers = append(hdrPkt.Pointers, Pointer{Field: f.ptr, Offset: uint32(off), Length: uint32(l)})
		}
	}
	e.ptrs = hdrPkt.Pointers
	if err := send(&hdrPkt, len(hdr)); err != nil {
		return stats, err
	}

	// Transaction sections: one envelope each. The identity fields come
	// from the schema walk below the payload field; an envelope the walk
	// cannot follow is sent as it is.
	for i := range b.Envelopes {
		env := block.AppendEnvelope(e.env[:0], &b.Envelopes[i])
		e.env = env
		pkt := Packet{
			Type:     SectionTx,
			BlockNum: b.Header.Number,
			Seq:      uint16(i),
			NumTxs:   uint16(numTxs),
			Pointers: e.ptrs[:0],
			Payload:  env,
		}
		// Pointer annotations into the original envelope bytes.
		whole := span{0, len(env)}
		payload, ok := field(env, whole, xEnvPayload)
		if ok {
			pkt.Pointers = append(pkt.Pointers, Pointer{Field: PtrPayload, Offset: uint32(payload.off), Length: uint32(payload.n)})
		}
		if sig, ok := field(env, whole, xEnvSig); ok {
			pkt.Pointers = append(pkt.Pointers, Pointer{Field: PtrEnvelopeSignature, Offset: uint32(sig.off), Length: uint32(sig.n)})
		}
		e.ptrs = pkt.Pointers
		if ok && e.lay.locate(env, payload) == nil {
			e.fields = append(e.fields[:0], e.lay.creator, e.lay.actionCreator)
			for _, end := range e.lay.ends {
				e.fields = append(e.fields, end.endorser)
			}
			e.sec, e.locs = stripIdentities(e.sec[:0], e.locs[:0], env, e.fields, s.cache)
			pkt.Payload, pkt.Locators = e.sec, e.locs
		}
		if err := send(&pkt, len(env)); err != nil {
			return stats, err
		}
	}

	// Metadata section: marks end of block; flags/commit hash are filled
	// in by the validator, so this carries only placeholders — and no
	// identity field.
	meta := wire.AppendBytes(e.env[:0], fMetaSecFlags, b.Metadata.ValidationFlags)
	meta = wire.AppendBytes(meta, fMetaSecCommit, b.Metadata.CommitHash)
	e.env = meta
	metaPkt := Packet{
		Type:     SectionMetadata,
		BlockNum: b.Header.Number,
		Seq:      uint16(numTxs),
		NumTxs:   uint16(numTxs),
		Payload:  meta,
	}
	return stats, send(&metaPkt, len(meta))
}
