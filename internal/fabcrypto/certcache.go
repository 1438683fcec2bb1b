package fabcrypto

import (
	"crypto/ecdsa"

	"bmac/internal/intern"
)

// CertCache is a sharded, bounded LRU cache of the public keys of X.509
// identity certificates. Profiling the software validator shows x509.ParseCertificate
// rivals the ECDSA math itself in allocations, and the same handful of
// identity certificates (creator, endorsers, orderer) recurs in every
// transaction of every block — the same observation that makes Fabric's MSP
// cache deserialized identities. A hit costs one fast hash + lookup and
// returns the interned ECDSA public key.
//
// It is an intern.Table keyed by the DER bytes: a hash collision degrades
// to a miss, never to a wrong key, and a certificate is parsed from the
// table's private copy of its DER, so cached entries never pin a block
// buffer.
//
// A nil *CertCache is valid and means "disabled": every call parses.
type CertCache intern.Table[certEntry]

// certEntry is one interned certificate: its ECDSA key, or why it has none.
type certEntry struct {
	pub *ecdsa.PublicKey
	err error
}

// NewCertCache creates a cache bounded to roughly `size` certificates.
// size < 1 returns nil (the disabled cache).
func NewCertCache(size int) *CertCache {
	return (*CertCache)(intern.New[certEntry](size))
}

func parseCertEntry(der []byte) certEntry {
	var e certEntry
	e.pub, e.err = PublicKeyFromCert(der)
	return e
}

func (c *CertCache) table() *intern.Table[certEntry] { return (*intern.Table[certEntry])(c) }

// PublicKeyFromCert returns the interned ECDSA public key of a DER
// certificate, mirroring the package-level PublicKeyFromCert (including
// its error for non-ECDSA keys). A nil receiver parses directly.
func (c *CertCache) PublicKeyFromCert(der []byte) (*ecdsa.PublicKey, error) {
	e, _ := c.table().Get(der, parseCertEntry)
	return e.pub, e.err
}

// Stats reports cumulative hits and misses.
func (c *CertCache) Stats() (hits, misses int64) { return c.table().Stats() }

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (c *CertCache) HitRate() float64 { return c.table().HitRate() }
