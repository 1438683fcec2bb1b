package validator

import (
	"fmt"
	"slices"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
)

// TestVSCCHashPaths runs one vscc range of 13 transactions — the engine's
// longest, whose 13 client digests and 26 endorsement digests HashBatch
// takes to the hash lanes where the CPU has them — through VSCC with its
// digests hashed in batches and one at a time (scalarHash), and expects
// the same flags, the flags each transaction was built to get, and the same
// operation counts from both.
func TestVSCCHashPaths(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	var peers []*identity.Identity
	for i := 1; i <= 3; i++ {
		org := fmt.Sprintf("Org%d", i)
		if _, err := net.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		p, err := net.NewIdentity(org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	members, err := net.Members()
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]*policy.Circuit{"smallbank": policy.Compile(policytest.MustParse("2of2"))}

	const n = 13
	envs := make([]block.Envelope, n)
	want := make([]byte, n)
	for i := range envs {
		spec := block.TxSpec{
			Creator:   client,
			Chaincode: "smallbank",
			Channel:   "ch",
			RWSet:     block.RWSet{Writes: []block.KVWrite{{Key: fmt.Sprintf("acct%d", i), Value: make([]byte, 16*i)}}},
			Endorsers: peers[:2],
		}
		want[i] = byte(block.Valid)
		switch i {
		case 3:
			spec.CorruptClientSig, want[i] = true, byte(block.BadSignature)
		case 5:
			spec.CorruptEndorsementIdx, want[i] = 2, byte(block.EndorsementPolicyFailure)
		case 7:
			spec.Endorsers, want[i] = peers[:1], byte(block.EndorsementPolicyFailure)
		case 9:
			spec.Chaincode, want[i] = "unknown", byte(block.InvalidOther)
		}
		env, err := block.NewEndorsedEnvelope(spec)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = *env
	}
	envs[11].PayloadBytes, want[11] = []byte("not a payload"), byte(block.BadPayload)
	txs := make([]ParsedTx, n)
	for i := range envs {
		txs[i] = ParseTx(envs[i].PayloadBytes)
	}

	defer func(old bool) { scalarHash = old }(scalarHash)
	var got [2][]byte
	var bds [2]Breakdown
	for k, scalar := range []bool{false, true} {
		scalarHash = scalar
		got[k] = make([]byte, n)
		VSCC(envs, txs, got[k], policies, members, &bds[k])
	}
	if !slices.Equal(got[0], want) || !slices.Equal(got[1], want) {
		t.Fatalf("flags: batched %v, one at a time %v, want %v", got[0], got[1], want)
	}
	// 12 client digests (not the undecodable payload's) and 2 × 12 − 1
	// endorsement digests (transaction 7 has one endorsement).
	const digests = 12 + 23
	for k, bd := range bds {
		if bd.SHA256Count != digests || bd.ECDSACount != digests || bd.SHA256Time <= 0 {
			t.Errorf("scalarHash=%v: %d digests in %v, %d checks; want %d of each", k == 1, bd.SHA256Count, bd.SHA256Time, bd.ECDSACount, digests)
		}
	}
	t.Logf("hash lanes on this CPU: %v", fabcrypto.HashLanes())
}
