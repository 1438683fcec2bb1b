package bmacproto

import (
	"fmt"

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
// Packet order: header, tx 0..n-1, metadata.
func (s *Sender) EncodeBlock(b *block.Block) ([][]byte, SendStats, error) {
	numTxs := len(b.Envelopes)
	if numTxs > 0xffff {
		return nil, SendStats{}, fmt.Errorf("bmacproto: block %d has %d txs (max 65535)", b.Header.Number, numTxs)
	}
	var stats SendStats
	packets := make([][]byte, 0, numTxs+2)

	emit := func(p *Packet, origLen int) {
		enc := p.Encode()
		packets = append(packets, enc)
		stats.Packets++
		stats.Bytes += len(enc)
		stats.PayloadBytes += len(p.Payload)
		stats.Removed += origLen - len(p.Payload)
	}

	// Header section: block header plus the orderer signature triple, so
	// the receiver can issue the block verification request immediately.
	var hdrPayload []byte
	hdrBytes := block.MarshalHeader(&b.Header)
	hdrPayload = wire.AppendBytes(hdrPayload, fHdrSecHeader, hdrBytes)
	hdrPayload = wire.AppendBytes(hdrPayload, fHdrSecCert, b.Metadata.Signature.Creator)
	ordererCert := span{len(hdrPayload) - len(b.Metadata.Signature.Creator), len(b.Metadata.Signature.Creator)}
	hdrPayload = wire.AppendBytes(hdrPayload, fHdrSecNonce, b.Metadata.Signature.Nonce)
	hdrPayload = wire.AppendBytes(hdrPayload, fHdrSecSig, b.Metadata.Signature.Signature)
	origLen := len(hdrPayload)
	stripped, locs := stripIdentities(hdrPayload, []span{ordererCert}, s.cache)
	hdrPkt := Packet{
		Type:     SectionHeader,
		BlockNum: b.Header.Number,
		NumTxs:   uint16(numTxs),
		Locators: locs,
		Payload:  stripped,
	}
	if off, l, ok := wire.FieldOffset(hdrPayload, fHdrSecHeader); ok {
		hdrPkt.Pointers = append(hdrPkt.Pointers, Pointer{Field: PtrHeaderBytes, Offset: uint32(off), Length: uint32(l)})
	}
	if off, l, ok := wire.FieldOffset(hdrPayload, fHdrSecSig); ok {
		hdrPkt.Pointers = append(hdrPkt.Pointers, Pointer{Field: PtrMetaSignature, Offset: uint32(off), Length: uint32(l)})
	}
	if off, l, ok := wire.FieldOffset(hdrPayload, fHdrSecNonce); ok {
		hdrPkt.Pointers = append(hdrPkt.Pointers, Pointer{Field: PtrMetaNonce, Offset: uint32(off), Length: uint32(l)})
	}
	emit(&hdrPkt, origLen)

	// Transaction sections: one envelope each. The identity fields come
	// from the schema walk below the payload field; an envelope the walk
	// cannot follow is sent as it is.
	var (
		lay    txLayout
		fields []span
	)
	for i := range b.Envelopes {
		envBytes := block.MarshalEnvelope(&b.Envelopes[i])
		pkt := Packet{
			Type:     SectionTx,
			BlockNum: b.Header.Number,
			Seq:      uint16(i),
			NumTxs:   uint16(numTxs),
			Pointers: make([]Pointer, 0, 2),
			Payload:  envBytes,
		}
		// Pointer annotations into the original envelope bytes.
		whole := span{0, len(envBytes)}
		payload, ok := field(envBytes, whole, xEnvPayload)
		if ok {
			pkt.Pointers = append(pkt.Pointers, Pointer{Field: PtrPayload, Offset: uint32(payload.off), Length: uint32(payload.n)})
		}
		if sig, ok := field(envBytes, whole, xEnvSig); ok {
			pkt.Pointers = append(pkt.Pointers, Pointer{Field: PtrEnvelopeSignature, Offset: uint32(sig.off), Length: uint32(sig.n)})
		}
		if ok && lay.locate(envBytes, payload) == nil {
			fields = append(fields[:0], lay.creator, lay.actionCreator)
			for _, e := range lay.ends {
				fields = append(fields, e.endorser)
			}
			pkt.Payload, pkt.Locators = stripIdentities(envBytes, fields, s.cache)
		}
		emit(&pkt, len(envBytes))
	}

	// Metadata section: marks end of block; flags/commit hash are filled
	// in by the validator, so this carries only placeholders — and no
	// identity field.
	var metaPayload []byte
	metaPayload = wire.AppendBytes(metaPayload, fMetaSecFlags, b.Metadata.ValidationFlags)
	metaPayload = wire.AppendBytes(metaPayload, fMetaSecCommit, b.Metadata.CommitHash)
	metaPkt := Packet{
		Type:     SectionMetadata,
		BlockNum: b.Header.Number,
		Seq:      uint16(numTxs),
		NumTxs:   uint16(numTxs),
		Payload:  metaPayload,
	}
	emit(&metaPkt, len(metaPayload))

	return packets, stats, nil
}

// SendBlock encodes and transmits a block. The orderer calls this right
// before handing the same block to the Gossip path, so software-only peers
// remain compatible.
func (s *Sender) SendBlock(b *block.Block) (SendStats, error) {
	packets, stats, err := s.EncodeBlock(b)
	if err != nil {
		return stats, err
	}
	if s.sink == nil {
		return stats, fmt.Errorf("bmacproto: sender has no sink")
	}
	for _, p := range packets {
		if err := s.sink.SendPacket(p); err != nil {
			return stats, fmt.Errorf("send packet: %w", err)
		}
	}
	return stats, nil
}
