package validator

import (
	"testing"

	"bmac/internal/identity"
)

// TestOrgRoleOf: an endorser's organization is "Org" and a canonical
// decimal 1–255, nothing before, after or inside it; the role comes from the
// common name's prefix, peer when none matches.
func TestOrgRoleOf(t *testing.T) {
	id := identity.Encode
	tests := []struct {
		orgs []string
		cn   string
		want identity.EncodedID
	}{
		{[]string{"Org1"}, "peer0.Org1", id(1, identity.RolePeer, 0)},
		{[]string{"Org2"}, "admin0.Org2", id(2, identity.RoleAdmin, 0)},
		{[]string{"Org7"}, "orderer0.Org7", id(7, identity.RoleOrderer, 0)},
		{[]string{"Org12"}, "client3.Org12", id(12, identity.RoleClient, 0)},
		{[]string{"Org255"}, "nobody", id(255, identity.RolePeer, 0)},
		{[]string{"Org2Mallory"}, "peer0.Org2", 0},
		{[]string{"Org1x"}, "peer0.Org1", 0},
		{[]string{"Org 3"}, "peer0.Org3", 0},
		{[]string{"Org+4"}, "peer0.Org4", 0},
		{[]string{"Org-1"}, "peer0", 0},
		{[]string{"Org01"}, "peer0", 0},
		{[]string{"Org0"}, "peer0", 0},
		{[]string{"Org256"}, "peer0", 0},
		{[]string{"Org1000"}, "peer0", 0},
		{[]string{"Org"}, "peer0", 0},
		{[]string{"org1"}, "peer0", 0},
		{[]string{" Org1"}, "peer0", 0},
		{[]string{"XOrg1"}, "peer0", 0},
		{nil, "peer0", 0},
		{[]string{"Org1", "Org2"}, "peer0", 0},
	}
	for _, tt := range tests {
		if got := orgRoleOf(tt.orgs, tt.cn); got != tt.want {
			t.Errorf("orgRoleOf(%q, %q) = %v, want %v", tt.orgs, tt.cn, got, tt.want)
		}
	}
}
