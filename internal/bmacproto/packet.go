// Package bmacproto implements the Blockchain Machine communication
// protocol (paper §3.2): a hardware-friendly block dissemination protocol
// that breaks a block into self-contained UDP packets.
//
// A block is split into sections — one header section, one section per
// transaction, one metadata section. Before transmission each section is
// transformed twice:
//
//  1. DataRemover replaces every identity certificate (~860 bytes) with
//     nothing, recording a locator annotation {original offset, 16-bit
//     encoded id}. Identities are at least 73% of a block, so this is where
//     the 3.4–5.3x bandwidth saving comes from (Figure 9a).
//
//  2. AnnotationGenerator computes pointer annotations {field, offset,
//     length} into the original section bytes, so the hardware receiver can
//     jump straight to signatures, endorsements and read/write sets without
//     recursively decoding 23 protobuf layers. They are the paper's
//     annotation format and count in the packet's bytes (Figure 9a); this
//     package's software receiver never reads them back. It reads every
//     field of an envelope from the rebuilt bytes the data hash covers,
//     through the block package, so a pointer that lies steers nothing.
//
// Each packet carries an L7 header (fixed part + annotations) followed by
// the stripped section payload, and is fully self-contained: the receiver
// can process it without waiting for other packets, enabling cut-through
// processing with a small buffer footprint (unlike TCP/Gossip, which must
// reassemble the whole marshaled block first).
package bmacproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"bmac/internal/identity"
)

// Magic identifies BMac packets; the PacketProcessor filters on it (the
// hardware additionally filters on the UDP port).
const Magic = 0xB3AC

// Version is the protocol version.
const Version = 1

// SectionType classifies the payload of a packet.
type SectionType uint8

// Section types.
const (
	SectionHeader SectionType = iota + 1
	SectionTx
	SectionMetadata
	SectionCacheSync
)

// String implements fmt.Stringer.
func (s SectionType) String() string {
	switch s {
	case SectionHeader:
		return "header"
	case SectionTx:
		return "tx"
	case SectionMetadata:
		return "metadata"
	case SectionCacheSync:
		return "cachesync"
	default:
		return fmt.Sprintf("section(%d)", uint8(s))
	}
}

// Annotation kinds.
const (
	annLocator = 1
	annPointer = 2
)

// Pointer annotation field kinds: which data field of the original section
// bytes the (offset, length) pair points at.
type PointerField uint16

// Pointer fields emitted by the AnnotationGenerator, for the hardware's
// DataExtractor. A tx section's payload and signature pointers are where
// block.DecodeEnvelope finds those fields; the header section's are the
// protocol's own header fields.
const (
	PtrEnvelopeSignature PointerField = iota + 1
	PtrPayload
	PtrHeaderBytes
	PtrMetaSignature
	PtrMetaNonce
)

// Locator records a removed identity: the byte offset in the ORIGINAL
// section where the certificate began, and its encoded id. Offsets are
// ascending and non-overlapping.
type Locator struct {
	Offset uint32
	ID     identity.EncodedID
}

// Pointer records the position of a data field in the original section.
// The receiver decodes it with the packet and reads nothing through it.
type Pointer struct {
	Field  PointerField
	Offset uint32
	Length uint32
}

// Packet is one parsed BMac protocol packet.
type Packet struct {
	Type     SectionType
	BlockNum uint64
	Seq      uint16 // transaction index within the block (tx sections)
	NumTxs   uint16 // total transactions in the block (repeated for self-containedness)
	Locators []Locator
	Pointers []Pointer
	Payload  []byte // stripped section bytes
}

// fixed L7 header layout:
//
//	magic(2) version(1) type(1) blockNum(8) seq(2) numTxs(2)
//	numLocators(2) numPointers(2) payloadLen(4)
const fixedHeaderLen = 2 + 1 + 1 + 8 + 2 + 2 + 2 + 2 + 4

const (
	locatorEncLen = 1 + 4 + 2
	pointerEncLen = 1 + 2 + 4 + 4
)

// ErrNotBMac reports a packet that is not a BMac protocol packet (wrong
// magic); the protocol_processor forwards such packets to the host CPU.
var ErrNotBMac = errors.New("bmacproto: not a BMac packet")

// ErrBadPacket reports a malformed BMac packet.
var ErrBadPacket = errors.New("bmacproto: malformed packet")

// EncodedSize returns the wire size of the packet.
func (p *Packet) EncodedSize() int {
	return fixedHeaderLen + len(p.Locators)*locatorEncLen +
		len(p.Pointers)*pointerEncLen + len(p.Payload)
}

// Encode serializes the packet into a self-contained datagram.
func (p *Packet) Encode() []byte {
	return p.AppendTo(nil)
}

// AppendTo appends the packet's datagram to out, growing it at most once:
// with room for EncodedSize more bytes, it does not allocate.
func (p *Packet) AppendTo(out []byte) []byte {
	out = slices.Grow(out, p.EncodedSize())
	var fixed [fixedHeaderLen]byte
	binary.BigEndian.PutUint16(fixed[0:], Magic)
	fixed[2] = Version
	fixed[3] = byte(p.Type)
	binary.BigEndian.PutUint64(fixed[4:], p.BlockNum)
	binary.BigEndian.PutUint16(fixed[12:], p.Seq)
	binary.BigEndian.PutUint16(fixed[14:], p.NumTxs)
	binary.BigEndian.PutUint16(fixed[16:], uint16(len(p.Locators)))
	binary.BigEndian.PutUint16(fixed[18:], uint16(len(p.Pointers)))
	binary.BigEndian.PutUint32(fixed[20:], uint32(len(p.Payload)))
	out = append(out, fixed[:]...)
	for _, l := range p.Locators {
		out = append(out, annLocator)
		out = binary.BigEndian.AppendUint32(out, l.Offset)
		out = binary.BigEndian.AppendUint16(out, uint16(l.ID))
	}
	for _, ptr := range p.Pointers {
		out = append(out, annPointer)
		out = binary.BigEndian.AppendUint16(out, uint16(ptr.Field))
		out = binary.BigEndian.AppendUint32(out, ptr.Offset)
		out = binary.BigEndian.AppendUint32(out, ptr.Length)
	}
	out = append(out, p.Payload...)
	return out
}

// Decode parses a datagram into a new Packet. It returns ErrNotBMac for
// non-BMac traffic and ErrBadPacket for corrupt BMac packets.
func Decode(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p, nil
}

// decode parses a datagram into p, reusing p's annotation slices. p's
// Payload aliases data.
func (p *Packet) decode(data []byte) error {
	if len(data) < 2 || binary.BigEndian.Uint16(data) != Magic {
		return ErrNotBMac
	}
	if len(data) < fixedHeaderLen {
		return fmt.Errorf("%w: short header (%d bytes)", ErrBadPacket, len(data))
	}
	if data[2] != Version {
		return fmt.Errorf("%w: version %d", ErrBadPacket, data[2])
	}
	nLoc := int(binary.BigEndian.Uint16(data[16:]))
	nPtr := int(binary.BigEndian.Uint16(data[18:]))
	payloadLen := int(binary.BigEndian.Uint32(data[20:]))

	pos := fixedHeaderLen
	need := pos + nLoc*locatorEncLen + nPtr*pointerEncLen + payloadLen
	if len(data) < need {
		return fmt.Errorf("%w: truncated (have %d, need %d)", ErrBadPacket, len(data), need)
	}
	*p = Packet{
		Type:     SectionType(data[3]),
		BlockNum: binary.BigEndian.Uint64(data[4:]),
		Seq:      binary.BigEndian.Uint16(data[12:]),
		NumTxs:   binary.BigEndian.Uint16(data[14:]),
		Locators: slices.Grow(p.Locators[:0], nLoc),
		Pointers: slices.Grow(p.Pointers[:0], nPtr),
	}
	for i := 0; i < nLoc; i++ {
		if data[pos] != annLocator {
			return fmt.Errorf("%w: expected locator annotation", ErrBadPacket)
		}
		p.Locators = append(p.Locators, Locator{
			Offset: binary.BigEndian.Uint32(data[pos+1:]),
			ID:     identity.EncodedID(binary.BigEndian.Uint16(data[pos+5:])),
		})
		pos += locatorEncLen
	}
	for i := 0; i < nPtr; i++ {
		if data[pos] != annPointer {
			return fmt.Errorf("%w: expected pointer annotation", ErrBadPacket)
		}
		p.Pointers = append(p.Pointers, Pointer{
			Field:  PointerField(binary.BigEndian.Uint16(data[pos+1:])),
			Offset: binary.BigEndian.Uint32(data[pos+3:]),
			Length: binary.BigEndian.Uint32(data[pos+7:]),
		})
		pos += pointerEncLen
	}
	p.Payload = data[pos : pos+payloadLen]
	return nil
}

// clone is a deep copy of p, for a packet held beyond the datagram it was
// decoded from.
func (p *Packet) clone() *Packet {
	q := *p
	q.Locators, q.Pointers = slices.Clone(p.Locators), slices.Clone(p.Pointers)
	q.Payload = bytes.Clone(p.Payload)
	return &q
}
