// Package identity implements the membership layer of the Blockchain Machine
// reproduction: organizations, node roles, per-node X.509 identities, and the
// 16-bit encoded identity scheme the BMac protocol uses to strip repeated
// certificates out of blocks.
//
// An encoded ID packs, per Section 3.2 of the paper:
//
//	bits 15..8  organization number
//	bits  7..4  role (orderer, admin, peer, client)
//	bits  3..0  node sequence number within its organization
//
// e.g. Org1.Peer0 encodes as org=1, role=peer, seq=0.
package identity

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bmac/internal/fabcrypto"
)

// Role is one of the predefined Fabric node roles.
type Role uint8

// Predefined roles, 4 bits each in the encoded ID. Values start at 1 so the
// zero EncodedID is never a valid identity.
const (
	RoleOrderer Role = iota + 1
	RoleAdmin
	RolePeer
	RoleClient
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleOrderer:
		return "orderer"
	case RoleAdmin:
		return "admin"
	case RolePeer:
		return "peer"
	case RoleClient:
		return "client"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// EncodedID is the 16-bit compact identity used on the wire by the BMac
// protocol and in the hardware endorsement-policy register file.
type EncodedID uint16

// Encode packs org, role and seq into an EncodedID.
func Encode(org uint8, role Role, seq uint8) EncodedID {
	return EncodedID(uint16(org)<<8 | uint16(role&0xf)<<4 | uint16(seq&0xf))
}

// Org returns the organization number (bits 15..8).
func (id EncodedID) Org() uint8 { return uint8(id >> 8) }

// Role returns the role (bits 7..4).
func (id EncodedID) Role() Role { return Role(uint8(id>>4) & 0xf) }

// Seq returns the node sequence number within its org (bits 3..0).
func (id EncodedID) Seq() uint8 { return uint8(id) & 0xf }

// String renders e.g. "Org1.Peer0".
func (id EncodedID) String() string {
	return fmt.Sprintf("Org%d.%s%d", id.Org(), roleTitle(id.Role()), id.Seq())
}

func roleTitle(r Role) string {
	switch r {
	case RoleOrderer:
		return "Orderer"
	case RoleAdmin:
		return "Admin"
	case RolePeer:
		return "Peer"
	case RoleClient:
		return "Client"
	default:
		return "Role?"
	}
}

// Identity is one network node: its certificate (the Fabric identity), its
// signing key, and its compact encoding.
type Identity struct {
	Name    string // e.g. "peer0.org1.example.com"
	OrgName string // e.g. "Org1"
	ID      EncodedID
	Cert    []byte // DER X.509 certificate (~860 bytes)
	signer  *fabcrypto.Signer
	pub     *ecdsa.PublicKey
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) ([]byte, error) {
	if id.signer == nil {
		return nil, fmt.Errorf("identity %s: no private key", id.Name)
	}
	return id.signer.Sign(msg)
}

// SignDigest signs a precomputed digest.
func (id *Identity) SignDigest(digest []byte) ([]byte, error) {
	if id.signer == nil {
		return nil, fmt.Errorf("identity %s: no private key", id.Name)
	}
	return id.signer.SignDigest(digest)
}

// PublicKey returns the identity's public key.
func (id *Identity) PublicKey() *ecdsa.PublicKey { return id.pub }

// Org is an organization with a certificate authority and member nodes.
type Org struct {
	Name    string
	Number  uint8
	caKey   *fabcrypto.Signer
	caCert  []byte
	nextSeq map[Role]uint8
	serial  int64
}

// Network is the set of organizations and identities in a Fabric network.
// It acts as the membership service provider: it issues certificates and
// maintains the canonical identity list used to initialize identity caches.
type Network struct {
	mu    sync.RWMutex
	orgs  map[string]*Org         // guarded by mu
	byID  map[EncodedID]*Identity // guarded by mu
	byCN  map[string]*Identity    // guarded by mu
	order []EncodedID             // guarded by mu; issue order, for deterministic iteration
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		orgs: make(map[string]*Org),
		byID: make(map[EncodedID]*Identity),
		byCN: make(map[string]*Identity),
	}
}

// ErrUnknownIdentity reports a lookup for an identity the network has not issued.
var ErrUnknownIdentity = errors.New("identity: unknown identity")

// AddOrg creates an organization with its own CA. Organization numbers are
// assigned in creation order starting at 1, matching the paper's Org1..OrgN.
func (n *Network) AddOrg(name string) (*Org, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.orgs[name]; ok {
		return nil, fmt.Errorf("identity: org %q already exists", name)
	}
	num := uint8(len(n.orgs) + 1)
	caKey, err := fabcrypto.NewSigner()
	if err != nil {
		return nil, fmt.Errorf("org %s CA key: %w", name, err)
	}
	caCert, err := fabcrypto.IssueCertificate(fabcrypto.CertTemplate{
		CommonName:   "ca." + name,
		Organization: name,
		IsCA:         true,
		SerialNumber: 1,
	}, caKey.Public(), nil, caKey.Private())
	if err != nil {
		return nil, fmt.Errorf("org %s CA cert: %w", name, err)
	}
	org := &Org{
		Name:    name,
		Number:  num,
		caKey:   caKey,
		caCert:  caCert,
		nextSeq: make(map[Role]uint8),
		serial:  2,
	}
	n.orgs[name] = org
	return org, nil
}

// NewIdentity issues a fresh identity in org with the given role. Node
// sequence numbers are assigned per (org, role) starting at 0 (Org1.Peer0).
func (n *Network) NewIdentity(orgName string, role Role) (*Identity, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	org, ok := n.orgs[orgName]
	if !ok {
		return nil, fmt.Errorf("identity: org %q does not exist", orgName)
	}
	seq := org.nextSeq[role]
	if seq > 0xf {
		return nil, fmt.Errorf("identity: org %q exhausted %s sequence numbers", orgName, role)
	}
	org.nextSeq[role] = seq + 1

	signer, err := fabcrypto.NewSigner()
	if err != nil {
		return nil, fmt.Errorf("identity key: %w", err)
	}
	name := fmt.Sprintf("%s%d.%s", role, seq, orgName)
	caCert, err := fabcrypto.ParseCertificate(org.caCert)
	if err != nil {
		return nil, err
	}
	cert, err := fabcrypto.IssueCertificate(fabcrypto.CertTemplate{
		CommonName:   name,
		Organization: orgName,
		SerialNumber: org.serial,
	}, signer.Public(), caCert, org.caKey.Private())
	if err != nil {
		return nil, err
	}
	org.serial++

	id := &Identity{
		Name:    name,
		OrgName: orgName,
		ID:      Encode(org.Number, role, seq),
		Cert:    cert,
		signer:  signer,
		pub:     signer.Public(),
	}
	n.byID[id.ID] = id
	n.byCN[name] = id
	n.order = append(n.order, id.ID)
	return id, nil
}

// Lookup returns the identity for an encoded ID.
func (n *Network) Lookup(id EncodedID) (*Identity, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ident, ok := n.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	return ident, nil
}

// LookupByName returns the identity with the given common name.
func (n *Network) LookupByName(name string) (*Identity, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ident, ok := n.byCN[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIdentity, name)
	}
	return ident, nil
}

// Identities returns all issued identities in issue order.
func (n *Network) Identities() []*Identity {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Identity, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.byID[id])
	}
	return out
}

// Cache is the identity cache shared between the BMac protocol sender
// (DataRemover) and the hardware receiver (DataInserter). It maps full
// certificates to encoded IDs and back. The sender half assigns IDs for
// previously unseen certificates; the receiver half is populated by cache
// synchronization packets.
type Cache struct {
	mu       sync.RWMutex
	certToID map[string]EncodedID           // guarded by mu
	idToCert map[EncodedID][]byte           // guarded by mu
	idToPub  map[EncodedID]*ecdsa.PublicKey // guarded by mu
	misses   atomic.Int64
	hits     atomic.Int64
}

// NewCache returns an empty identity cache.
func NewCache() *Cache {
	return &Cache{
		certToID: make(map[string]EncodedID),
		idToCert: make(map[EncodedID][]byte),
		idToPub:  make(map[EncodedID]*ecdsa.PublicKey),
	}
}

// Preload inserts every identity of a network; used to initialize the
// hardware cache from the YAML configuration, as the paper's setup script does.
func (c *Cache) Preload(n *Network) error {
	for _, id := range n.Identities() {
		if err := c.Put(id.ID, id.Cert); err != nil {
			return err
		}
	}
	return nil
}

// Put inserts or updates the mapping id <-> cert. An id that moves to a
// new certificate takes its reverse entry along: the old certificate no
// longer resolves to it.
func (c *Cache) Put(id EncodedID, cert []byte) error {
	pub, err := fabcrypto.PublicKeyFromCert(cert)
	if err != nil {
		return fmt.Errorf("cache put %s: %w", id, err)
	}
	certCopy := make([]byte, len(cert))
	copy(certCopy, cert)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.idToCert[id]; ok && c.certToID[string(old)] == id {
		delete(c.certToID, string(old))
	}
	c.certToID[string(cert)] = id
	c.idToCert[id] = certCopy
	c.idToPub[id] = pub
	return nil
}

// IDForCert returns the encoded ID for a certificate, reporting whether the
// certificate was present. Sender side of DataRemover, once per identity
// field, and the receiver's per-endorsement lookup: a read lock only.
func (c *Cache) IDForCert(cert []byte) (EncodedID, bool) {
	c.mu.RLock()
	id, ok := c.certToID[string(cert)]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return id, ok
}

// CertForID returns the certificate for an encoded ID. Receiver side of
// DataInserter.
func (c *Cache) CertForID(id EncodedID) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cert, ok := c.idToCert[id]
	return cert, ok
}

// PublicKeyForID returns the cached public key for an encoded ID, letting
// the hardware skip X.509 parsing on the hot path.
func (c *Cache) PublicKeyForID(id EncodedID) (*ecdsa.PublicKey, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pub, ok := c.idToPub[id]
	return pub, ok
}

// Len reports the number of cached identities.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.idToCert)
}

// Stats reports cache hits and misses observed by IDForCert.
func (c *Cache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}
