package bmacproto

import (
	"fmt"

	"bmac/internal/identity"
)

// DataRemover strips identity certificates out of section bytes, replacing
// each with a locator annotation, and DataInserter reverses the transform.
// Together they implement the sender/receiver halves of the protocol's
// identity compression (paper §3.2, Figure 5).

// stripIdentities removes from sec every one of the given fields that holds
// a certificate the cache knows, returning the stripped bytes and the
// locators (offsets into the ORIGINAL section, ascending). Identities are
// located as fields — by the caller, from the schema — never by searching
// for their bytes: a certificate the cache does not know, or one that sits
// anywhere but in an identity field, stays inline. Fields out of ascending
// order mean a section no marshaller of ours produced; it is sent whole.
func stripIdentities(sec []byte, fields []span, cache *identity.Cache) (stripped []byte, locs []Locator) {
	prev := 0
	for _, f := range fields {
		id, ok := cache.IDForCert(f.of(sec))
		if !ok {
			continue
		}
		if f.off < prev {
			return sec, nil
		}
		if locs == nil {
			stripped = make([]byte, 0, len(sec))
			locs = make([]Locator, 0, len(fields))
		}
		stripped = append(stripped, sec[prev:f.off]...)
		locs = append(locs, Locator{Offset: uint32(f.off), ID: id})
		prev = f.off + f.n
	}
	if locs == nil {
		return sec, nil
	}
	return append(stripped, sec[prev:]...), locs
}

// insertIdentities reconstructs the original section bytes from stripped
// data and locators, looking certificates up in the cache. This is the
// DataInserter module of the protocol_processor. The result is always a
// buffer of its own, never stripped itself, so the receiver may keep it
// when a transport reuses the packet's bytes.
func insertIdentities(stripped []byte, locs []Locator, cache *identity.Cache) ([]byte, error) {
	total := len(stripped)
	for _, l := range locs {
		cert, ok := cache.CertForID(l.ID)
		if !ok {
			return nil, fmt.Errorf("bmacproto: identity cache miss for %s", l.ID)
		}
		total += len(cert)
	}
	out := make([]byte, 0, total)
	srcPos := 0 // position in stripped
	for i, l := range locs {
		gap := int(l.Offset) - len(out)
		if gap < 0 || srcPos+gap > len(stripped) {
			return nil, fmt.Errorf("bmacproto: locator %d offset %d out of range", i, l.Offset)
		}
		out = append(out, stripped[srcPos:srcPos+gap]...)
		srcPos += gap
		cert, _ := cache.CertForID(l.ID) // a cache never forgets an id
		out = append(out, cert...)
	}
	return append(out, stripped[srcPos:]...), nil
}
