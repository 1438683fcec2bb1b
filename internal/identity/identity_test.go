package identity

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"sync"
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
	n := NewNetwork([]byte(t.Name()))
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
	n := NewNetwork([]byte(t.Name()))
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
	n := NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddOrg("Org1"); err == nil {
		t.Error("expected duplicate org error")
	}
}

func TestIdentityCertificateVerifies(t *testing.T) {
	n := NewNetwork([]byte(t.Name()))
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
	n := NewNetwork([]byte(t.Name()))
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
}

// TestCacheResolve: a member's certificate resolves to its ID and the key
// Put parsed; an outsider's to ID 0 and the key parsed from it; a
// certificate that does not parse to an error; a nil cache parses; and an
// ID moved to a new certificate resolves from that one to the new key.
func TestCacheResolve(t *testing.T) {
	n := NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	var ids []*Identity
	for range 3 {
		id, err := n.NewIdentity("Org1", RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	member, outsider, renewed := ids[0], ids[1], ids[2]
	c := NewCache()
	if err := c.Put(member.ID, member.Cert); err != nil {
		t.Fatal(err)
	}
	resolve := func(c *Cache, cert []byte, wantID EncodedID, wantPub *ecdsa.PublicKey) {
		t.Helper()
		id, pub, err := c.Resolve(cert)
		if err != nil || id != wantID || !pub.Equal(wantPub) {
			t.Errorf("Resolve = %v, %v, %v; want %v, %v", id, pub, err, wantID, wantPub)
		}
	}
	resolve(c, member.Cert, member.ID, member.PublicKey())
	resolve(c, outsider.Cert, 0, outsider.PublicKey())
	var none *Cache
	resolve(none, member.Cert, 0, member.PublicKey())
	for _, c := range []*Cache{c, none} {
		if id, pub, err := c.Resolve([]byte("not a certificate")); err == nil || id != 0 || pub != nil {
			t.Errorf("unparsable certificate resolves to %v, %v, %v", id, pub, err)
		}
	}

	// The member's key is the one Put parsed: the cache hands out the same
	// pointer on every lookup and never parses again.
	_, first, _ := c.Resolve(member.Cert)
	if _, again, _ := c.Resolve(member.Cert); again != first {
		t.Error("a member's certificate was parsed again")
	}

	if err := c.Put(member.ID, renewed.Cert); err != nil {
		t.Fatal(err)
	}
	resolve(c, renewed.Cert, member.ID, renewed.PublicKey())
	resolve(c, member.Cert, 0, member.PublicKey())
}

func TestCachePreload(t *testing.T) {
	n := NewNetwork([]byte(t.Name()))
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
	c, err := n.Members()
	if err != nil {
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
	n := NewNetwork([]byte(t.Name()))
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
	n := NewNetwork([]byte(t.Name()))
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

// TestNetworkIsAFunctionOfItsSeed: one seed and the same calls issue the
// same certificates, byte for byte. Another seed issues others under the
// same names, and none of them is a member of the first network.
func TestNetworkIsAFunctionOfItsSeed(t *testing.T) {
	build := func(seed string) []*Identity {
		t.Helper()
		n := NewNetwork([]byte(seed))
		for _, org := range []string{"Org1", "Org2"} {
			if _, err := n.AddOrg(org); err != nil {
				t.Fatal(err)
			}
			for _, role := range []Role{RolePeer, RoleClient} {
				if _, err := n.NewIdentity(org, role); err != nil {
					t.Fatal(err)
				}
			}
		}
		return n.Identities()
	}
	a, same, other := build("a"), build("a"), build("b")
	members := NewCache()
	for _, id := range a {
		if err := members.Put(id.ID, id.Cert); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range a {
		if !bytes.Equal(id.Cert, same[i].Cert) {
			t.Errorf("%s: one seed issued two certificates", id.Name)
		}
		if other[i].Name != id.Name || bytes.Equal(id.Cert, other[i].Cert) {
			t.Errorf("%s: another seed issued %q with the same certificate", id.Name, other[i].Name)
		}
		if got, ok := members.IDForCert(other[i].Cert); ok {
			t.Errorf("outsider %s resolves to member %s", other[i].Name, got)
		}
	}
	var none *Cache
	if got, ok := none.IDForCert(a[0].Cert); ok || got != 0 {
		t.Errorf("nil cache resolves a certificate to %v, %v", got, ok)
	}
}

// TestCacheConcurrentLookupAndPut reads the cache from 8 goroutines, as a
// software validator's vscc workers do, while Put rewrites it; run under
// -race. Every lookup of a certificate that is always present must hit.
func TestCacheConcurrentLookupAndPut(t *testing.T) {
	n := NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	var ids []*Identity
	for i := 0; i < 4; i++ {
		id, err := n.NewIdentity("Org1", RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	c, err := n.Members()
	if err != nil {
		t.Fatal(err)
	}
	stable := ids[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if got, ok := c.IDForCert(stable.Cert); !ok || got != stable.ID {
					t.Errorf("IDForCert = %v, %v, want %s", got, ok, stable.ID)
					return
				}
				c.IDForCert(ids[1+i%3].Cert)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		moving := ids[1+i%3]
		if err := c.Put(moving.ID, ids[1+(i+1)%3].Cert); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
