package identity

import (
	"errors"
	"testing"
	"testing/quick"

	"bmac/internal/fabcrypto"
)

func TestEncodedIDPacking(t *testing.T) {
	tests := []struct {
		org  uint8
		role Role
		seq  uint8
		str  string
	}{
		{1, RolePeer, 0, "Org1.Peer0"},
		{2, RoleOrderer, 3, "Org2.Orderer3"},
		{255, RoleClient, 15, "Org255.Client15"},
		{4, RoleAdmin, 7, "Org4.Admin7"},
	}
	for _, tt := range tests {
		id := Encode(tt.org, tt.role, tt.seq)
		if id.Org() != tt.org || id.Role() != tt.role || id.Seq() != tt.seq {
			t.Errorf("Encode(%d,%v,%d) unpacked to (%d,%v,%d)",
				tt.org, tt.role, tt.seq, id.Org(), id.Role(), id.Seq())
		}
		if id.String() != tt.str {
			t.Errorf("String() = %q, want %q", id.String(), tt.str)
		}
	}
}

func TestEncodedIDQuick(t *testing.T) {
	f := func(org uint8, roleRaw uint8, seq uint8) bool {
		role := Role(roleRaw%4 + 1)
		seq &= 0xf
		id := Encode(org, role, seq)
		return id.Org() == org && id.Role() == role && id.Seq() == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedIDsUniqueAcrossNetwork(t *testing.T) {
	n := NewNetwork()
	orgs := []string{"Org1", "Org2", "Org3", "Org4"}
	for _, org := range orgs {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[EncodedID]bool)
	for _, org := range orgs {
		for _, role := range []Role{RoleOrderer, RolePeer, RolePeer, RoleClient} {
			id, err := n.NewIdentity(org, role)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id.ID] {
				t.Errorf("duplicate encoded ID %s", id.ID)
			}
			seen[id.ID] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("issued %d identities, want 16", len(seen))
	}
}

func TestNetworkIssueAndLookup(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	peer, err := n.NewIdentity("Org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	if peer.Name != "peer0.Org1" {
		t.Errorf("name = %q", peer.Name)
	}
	if peer.ID != Encode(1, RolePeer, 0) {
		t.Errorf("ID = %s", peer.ID)
	}

	got, err := n.Lookup(peer.ID)
	if err != nil || got != peer {
		t.Errorf("Lookup: %v", err)
	}
	got, err = n.LookupByName("peer0.Org1")
	if err != nil || got != peer {
		t.Errorf("LookupByName: %v", err)
	}
	if _, err := n.Lookup(Encode(9, RolePeer, 9)); !errors.Is(err, ErrUnknownIdentity) {
		t.Errorf("unknown lookup err = %v", err)
	}
}

func TestDuplicateOrgRejected(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddOrg("Org1"); err == nil {
		t.Error("expected duplicate org error")
	}
}

func TestIdentityCertificateVerifies(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	id, err := n.NewIdentity("Org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := id.Sign([]byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := fabcrypto.PublicKeyFromCert(id.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := fabcrypto.Verify(pub, []byte("msg"), sig); err != nil {
		t.Errorf("signature under cert key: %v", err)
	}
}

func TestCachePutLookup(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	id, err := n.NewIdentity("Org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	if _, ok := c.IDForCert(id.Cert); ok {
		t.Error("empty cache claims to contain cert")
	}
	if err := c.Put(id.ID, id.Cert); err != nil {
		t.Fatal(err)
	}
	got, ok := c.IDForCert(id.Cert)
	if !ok || got != id.ID {
		t.Errorf("IDForCert = %v, %v", got, ok)
	}
	cert, ok := c.CertForID(id.ID)
	if !ok || string(cert) != string(id.Cert) {
		t.Error("CertForID mismatch")
	}
	if _, ok := c.PublicKeyForID(id.ID); !ok {
		t.Error("PublicKeyForID missing")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", hits, misses)
	}
}

func TestCachePreload(t *testing.T) {
	n := NewNetwork()
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		if _, err := n.NewIdentity(org, RolePeer); err != nil {
			t.Fatal(err)
		}
		if _, err := n.NewIdentity(org, RoleOrderer); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache()
	if err := c.Preload(n); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Errorf("cache len = %d, want 4", c.Len())
	}
}

func TestCacheRejectsGarbageCert(t *testing.T) {
	c := NewCache()
	if err := c.Put(Encode(1, RolePeer, 0), []byte("not a cert")); err == nil {
		t.Error("expected error for garbage certificate")
	}
}

// TestCacheRePutDropsOldCertificate: an id that moves to a new certificate
// must stop resolving from the old one — a sender trusting the stale
// reverse entry would strip the old bytes and the receiver would re-insert
// the new certificate in their place.
func TestCacheRePutDropsOldCertificate(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	old, err := n.NewIdentity("Org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := n.NewIdentity("Org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	for _, cert := range [][]byte{old.Cert, renewed.Cert, renewed.Cert} {
		if err := c.Put(old.ID, cert); err != nil {
			t.Fatal(err)
		}
	}
	if id, ok := c.IDForCert(old.Cert); ok {
		t.Errorf("replaced certificate still resolves to %s", id)
	}
	if id, ok := c.IDForCert(renewed.Cert); !ok || id != old.ID {
		t.Errorf("IDForCert(renewed) = %v, %v", id, ok)
	}
	// A certificate that has since moved to another id keeps that entry
	// when its former id is overwritten.
	if err := c.Put(renewed.ID, renewed.Cert); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(old.ID, old.Cert); err != nil {
		t.Fatal(err)
	}
	if id, ok := c.IDForCert(renewed.Cert); !ok || id != renewed.ID {
		t.Errorf("IDForCert(renewed) after move = %v, %v, want %s", id, ok, renewed.ID)
	}
}

func TestSequenceExhaustion(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := n.NewIdentity("Org1", RoleClient); err != nil {
			t.Fatalf("identity %d: %v", i, err)
		}
	}
	if _, err := n.NewIdentity("Org1", RoleClient); err == nil {
		t.Error("expected sequence exhaustion at 16 clients")
	}
	// Other roles still have room.
	if _, err := n.NewIdentity("Org1", RolePeer); err != nil {
		t.Errorf("peer after client exhaustion: %v", err)
	}
}
