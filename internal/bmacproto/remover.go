package bmacproto

import (
	"fmt"

	"bmac/internal/identity"
)

// DataRemover strips identity certificates out of section bytes, replacing
// each with a locator annotation, and DataInserter reverses the transform.
// Together they implement the sender/receiver halves of the protocol's
// identity compression (paper §3.2, Figure 5).

// span is the byte range of one field's payload, in absolute offsets of
// the section it was found in. The zero span means the field is absent.
type span struct{ off, n int }

func (s span) of(sec []byte) []byte { return sec[s.off : s.off+s.n] }

// spanIn is where field, a slice the block package decoded out of sec, lies
// in sec; the zero span when field is empty. The decoders slice their input
// without capping it, so field ends where sec's capacity does, cap(field)
// bytes after its start.
func spanIn(sec, field []byte) span {
	if len(field) == 0 {
		return span{}
	}
	return span{cap(sec) - cap(field), len(field)}
}

// stripIdentities appends to dst the section sec with every one of the
// given fields removed that holds a certificate the cache knows, and to locs
// a locator for each (offsets into the ORIGINAL section, ascending).
// Identities are located as fields — by the caller, through
// block.AppendIdentities —
// never by searching for their bytes: a certificate the cache does not know, or
// one that sits anywhere but in an identity field, stays inline. Fields out
// of ascending order mean a section no marshaller of ours produced; it is
// appended whole, with no locator.
func stripIdentities(dst []byte, locs []Locator, sec []byte, fields []span, cache *identity.Cache) ([]byte, []Locator) {
	dst0, locs0, prev := len(dst), len(locs), 0
	for _, f := range fields {
		id, ok := cache.IDForCert(f.of(sec))
		if !ok {
			continue
		}
		if f.off < prev {
			return append(dst[:dst0], sec...), locs[:locs0]
		}
		dst = append(dst, sec[prev:f.off]...)
		locs = append(locs, Locator{Offset: uint32(f.off), ID: id})
		prev = f.off + f.n
	}
	return append(dst, sec[prev:]...), locs
}

// insertedLen is the length of the section insertIdentities rebuilds from
// stripped and locs: the stripped bytes and every certificate the locators
// name. It errors when the cache holds no certificate for one of them.
func insertedLen(stripped []byte, locs []Locator, cache *identity.Cache) (int, error) {
	n := len(stripped)
	for _, l := range locs {
		cert, ok := cache.CertForID(l.ID)
		if !ok {
			return 0, fmt.Errorf("bmacproto: identity cache miss for %s", l.ID)
		}
		n += len(cert)
	}
	return n, nil
}

// insertIdentities appends to dst the original section bytes, rebuilt from
// stripped data and locators by looking certificates up in the cache. This
// is the DataInserter module of the protocol_processor. It writes to dst
// only, never to stripped, and with room in dst for insertedLen more bytes
// it does not allocate. On error dst is returned as it was.
func insertIdentities(dst, stripped []byte, locs []Locator, cache *identity.Cache) ([]byte, error) {
	start, srcPos := len(dst), 0 // srcPos: position in stripped
	for i, l := range locs {
		cert, ok := cache.CertForID(l.ID)
		if !ok {
			return dst[:start], fmt.Errorf("bmacproto: identity cache miss for %s", l.ID)
		}
		gap := int(l.Offset) - (len(dst) - start)
		if gap < 0 || srcPos+gap > len(stripped) {
			return dst[:start], fmt.Errorf("bmacproto: locator %d offset %d out of range", i, l.Offset)
		}
		dst = append(dst, stripped[srcPos:srcPos+gap]...)
		srcPos += gap
		dst = append(dst, cert...)
	}
	return append(dst, stripped[srcPos:]...), nil
}
