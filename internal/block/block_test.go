package block

import (
	"bytes"
	"errors"
	"testing"

	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/wire"
)

// testNet builds a 2-org network with a client, two endorsers and an orderer.
type testNet struct {
	net       *identity.Network
	client    *identity.Identity
	orderer   *identity.Identity
	endorser1 *identity.Identity
	endorser2 *identity.Identity
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(org string, role identity.Role) *identity.Identity {
		id, err := n.NewIdentity(org, role)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	return &testNet{
		net:       n,
		client:    mk("Org1", identity.RoleClient),
		orderer:   mk("Org1", identity.RoleOrderer),
		endorser1: mk("Org1", identity.RolePeer),
		endorser2: mk("Org2", identity.RolePeer),
	}
}

func (tn *testNet) envelope(t *testing.T) *Envelope {
	t.Helper()
	env, err := NewEndorsedEnvelope(TxSpec{
		Creator:   tn.client,
		Chaincode: "smallbank",
		Channel:   "ch1",
		RWSet: RWSet{
			Reads:  []KVRead{{Key: "acc1", Version: Version{BlockNum: 3, TxNum: 1}}},
			Writes: []KVWrite{{Key: "acc1", Value: []byte("100")}},
		},
		Endorsers: []*identity.Identity{tn.endorser1, tn.endorser2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeRoundTrip(t *testing.T) {
	tn := newTestNet(t)
	env := tn.envelope(t)
	data := MarshalEnvelope(env)
	got, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.PayloadBytes, env.PayloadBytes) || !bytes.Equal(got.Signature, env.Signature) {
		t.Error("envelope round trip mismatch")
	}
}

func TestTransactionPayloadRoundTrip(t *testing.T) {
	tn := newTestNet(t)
	env := tn.envelope(t)
	tx, err := UnmarshalTransactionPayload(env.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ChannelHeader.ChaincodeName != "smallbank" {
		t.Errorf("chaincode = %q", tx.ChannelHeader.ChaincodeName)
	}
	if tx.ChannelHeader.ChannelID != "ch1" {
		t.Errorf("channel = %q", tx.ChannelHeader.ChannelID)
	}
	if !bytes.Equal(tx.SignatureHeader.Creator, tn.client.Cert) {
		t.Error("creator cert mismatch")
	}
	if len(tx.Payload.Action.Endorsements) != 2 {
		t.Fatalf("endorsements = %d, want 2", len(tx.Payload.Action.Endorsements))
	}
	prp, err := UnmarshalProposalResponsePayload(tx.Payload.Action.ProposalResponseBytes)
	if err != nil {
		t.Fatal(err)
	}
	rw := prp.Extension.Results
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "acc1" || rw.Reads[0].Version.BlockNum != 3 {
		t.Errorf("read set = %+v", rw.Reads)
	}
	if len(rw.Writes) != 1 || string(rw.Writes[0].Value) != "100" {
		t.Errorf("write set = %+v", rw.Writes)
	}
}

func TestClientSignatureVerifies(t *testing.T) {
	tn := newTestNet(t)
	env := tn.envelope(t)
	pub, err := fabcrypto.PublicKeyFromCert(tn.client.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := fabcrypto.Verify(pub, env.PayloadBytes, env.Signature); err != nil {
		t.Errorf("client signature: %v", err)
	}
}

func TestEndorsementSignaturesVerify(t *testing.T) {
	tn := newTestNet(t)
	env := tn.envelope(t)
	tx, err := UnmarshalTransactionPayload(env.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tx.Payload.Action.Endorsements {
		pub, err := fabcrypto.PublicKeyFromCert(e.Endorser)
		if err != nil {
			t.Fatal(err)
		}
		msg := EndorsementSigningBytes(tx.Payload.Action.ProposalResponseBytes, e.Endorser)
		if err := fabcrypto.Verify(pub, msg, e.Signature); err != nil {
			t.Errorf("endorsement %d: %v", i, err)
		}
	}
}

func TestCorruptedSignaturesDetected(t *testing.T) {
	tn := newTestNet(t)
	env, err := NewEndorsedEnvelope(TxSpec{
		Creator:          tn.client,
		Chaincode:        "cc",
		Channel:          "ch1",
		Endorsers:        []*identity.Identity{tn.endorser1},
		CorruptClientSig: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := fabcrypto.PublicKeyFromCert(tn.client.Cert)
	if err := fabcrypto.Verify(pub, env.PayloadBytes, env.Signature); err == nil {
		t.Error("corrupt client signature verified")
	}

	env2, err := NewEndorsedEnvelope(TxSpec{
		Creator:               tn.client,
		Chaincode:             "cc",
		Channel:               "ch1",
		Endorsers:             []*identity.Identity{tn.endorser1},
		CorruptEndorsementIdx: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := UnmarshalTransactionPayload(env2.PayloadBytes)
	e := tx.Payload.Action.Endorsements[0]
	epub, _ := fabcrypto.PublicKeyFromCert(e.Endorser)
	msg := EndorsementSigningBytes(tx.Payload.Action.ProposalResponseBytes, e.Endorser)
	if err := fabcrypto.Verify(epub, msg, e.Signature); err == nil {
		t.Error("corrupt endorsement verified")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	tn := newTestNet(t)
	envs := []Envelope{*tn.envelope(t), *tn.envelope(t), *tn.envelope(t)}
	blk, err := NewBlock(7, fabcrypto.HashSlice([]byte("prev")), envs, tn.orderer)
	if err != nil {
		t.Fatal(err)
	}
	data := Marshal(blk)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Number != 7 {
		t.Errorf("number = %d", got.Header.Number)
	}
	if len(got.Envelopes) != 3 {
		t.Fatalf("envelopes = %d", len(got.Envelopes))
	}
	if !bytes.Equal(got.Header.DataHash, DataHash(envs)) {
		t.Error("data hash mismatch after round trip")
	}
	if !bytes.Equal(got.Metadata.Signature.Signature, blk.Metadata.Signature.Signature) {
		t.Error("metadata signature lost")
	}
	if err := VerifyOrdererSignature(got); err != nil {
		t.Errorf("orderer signature after round trip: %v", err)
	}
}

func TestVerifyOrdererSignatureRejectsTamper(t *testing.T) {
	tn := newTestNet(t)
	blk, err := NewBlock(1, nil, []Envelope{*tn.envelope(t)}, tn.orderer)
	if err != nil {
		t.Fatal(err)
	}
	blk.Header.Number = 2 // tamper after signing
	if err := VerifyOrdererSignature(blk); err == nil {
		t.Error("tampered block verified")
	}
}

func TestMarshaledBlockNestingDepth(t *testing.T) {
	tn := newTestNet(t)
	blk, err := NewBlock(1, nil, []Envelope{*tn.envelope(t)}, tn.orderer)
	if err != nil {
		t.Fatal(err)
	}
	data := Marshal(blk)
	// The paper reports up to 23 protobuf layers in a Fabric block. Our
	// structure reproduces a deep stack; require at least 8 decode layers
	// (block > data > envelope > payload > txdata > action > cap > ea > prp > cca > rwset).
	if d := wire.NestedDepth(data); d < 8 {
		t.Errorf("marshaled block nesting depth = %d, want >= 8", d)
	}
}

func TestIdentityWeightInBlock(t *testing.T) {
	// Figure 9a premise: >= 73% of a block with multiple endorsements is
	// identity certificates. Verify certificates dominate block size.
	tn := newTestNet(t)
	var envs []Envelope
	for i := 0; i < 20; i++ {
		envs = append(envs, *tn.envelope(t))
	}
	blk, err := NewBlock(1, nil, envs, tn.orderer)
	if err != nil {
		t.Fatal(err)
	}
	total := len(Marshal(blk))
	certBytes := 0
	for range envs {
		// each tx: creator cert + 2 endorser certs
		certBytes += len(tn.client.Cert) + len(tn.endorser1.Cert) + len(tn.endorser2.Cert)
	}
	frac := float64(certBytes) / float64(total)
	if frac < 0.5 {
		t.Errorf("identity fraction = %.2f, want >= 0.5 (paper: >= 0.73)", frac)
	}
}

func TestCommitHashDeterministic(t *testing.T) {
	flags := []byte{0, 0, 1, 0}
	h1 := CommitHash([]byte("prev"), []byte("data"), flags)
	h2 := CommitHash([]byte("prev"), []byte("data"), flags)
	if !bytes.Equal(h1, h2) {
		t.Error("commit hash not deterministic")
	}
	h3 := CommitHash([]byte("prev"), []byte("data"), []byte{0, 0, 0, 0})
	if bytes.Equal(h1, h3) {
		t.Error("commit hash insensitive to flags")
	}
}

func TestValidationCodeStrings(t *testing.T) {
	if Valid.String() != "VALID" || MVCCReadConflict.String() != "MVCC_READ_CONFLICT" {
		t.Error("validation code strings wrong")
	}
	if CountValid([]byte{0, 1, 0, 4}) != 2 {
		t.Error("CountValid wrong")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
	if _, err := UnmarshalTransactionPayload([]byte{0x05}); !errors.Is(err, ErrMalformed) {
		t.Errorf("tx payload err = %v, want ErrMalformed", err)
	}
}

func TestRWSetRoundTripEmpty(t *testing.T) {
	rw := &RWSet{}
	got, err := UnmarshalRWSet(MarshalRWSet(rw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reads) != 0 || len(got.Writes) != 0 {
		t.Error("empty rwset round trip mismatch")
	}
}

func TestRWSetRoundTripLarge(t *testing.T) {
	rw := &RWSet{}
	for i := 0; i < 50; i++ {
		rw.Reads = append(rw.Reads, KVRead{
			Key:     string(rune('a'+i%26)) + "key",
			Version: Version{BlockNum: uint64(i), TxNum: uint64(i * 2)},
		})
		rw.Writes = append(rw.Writes, KVWrite{Key: "w", Value: bytes.Repeat([]byte{byte(i)}, i)})
	}
	got, err := UnmarshalRWSet(MarshalRWSet(rw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reads) != 50 || len(got.Writes) != 50 {
		t.Fatalf("round trip sizes %d/%d", len(got.Reads), len(got.Writes))
	}
	for i := range rw.Reads {
		if got.Reads[i] != rw.Reads[i] {
			t.Fatalf("read %d mismatch", i)
		}
		if got.Writes[i].Key != rw.Writes[i].Key || !bytes.Equal(got.Writes[i].Value, rw.Writes[i].Value) {
			t.Fatalf("write %d mismatch", i)
		}
	}
}

func TestVersionLess(t *testing.T) {
	if !(Version{1, 5}).Less(Version{2, 0}) {
		t.Error("block order wrong")
	}
	if !(Version{1, 1}).Less(Version{1, 2}) {
		t.Error("tx order wrong")
	}
	if (Version{2, 0}).Less(Version{1, 9}) {
		t.Error("reversed order accepted")
	}
}

func BenchmarkBlockUnmarshal(b *testing.B) {
	tn := newTestNetB(b)
	var envs []Envelope
	for i := 0; i < 100; i++ {
		env, err := NewEndorsedEnvelope(TxSpec{
			Creator:   tn.client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: RWSet{
				Reads:  []KVRead{{Key: "k", Version: Version{1, 1}}},
				Writes: []KVWrite{{Key: "k", Value: []byte("v")}},
			},
			Endorsers: []*identity.Identity{tn.endorser1, tn.endorser2},
		})
		if err != nil {
			b.Fatal(err)
		}
		envs = append(envs, *env)
	}
	blk, err := NewBlock(1, nil, envs, tn.orderer)
	if err != nil {
		b.Fatal(err)
	}
	data := Marshal(blk)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		for j := range got.Envelopes {
			if _, err := UnmarshalTransactionPayload(got.Envelopes[j].PayloadBytes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func newTestNetB(b *testing.B) *testNet {
	b.Helper()
	n := identity.NewNetwork([]byte(b.Name()))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			b.Fatal(err)
		}
	}
	mk := func(org string, role identity.Role) *identity.Identity {
		id, err := n.NewIdentity(org, role)
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	return &testNet{
		net:       n,
		client:    mk("Org1", identity.RoleClient),
		orderer:   mk("Org1", identity.RoleOrderer),
		endorser1: mk("Org1", identity.RolePeer),
		endorser2: mk("Org2", identity.RolePeer),
	}
}

// TestEnvelopeTxIDRepeatedChannelHeader: with two channel headers in a
// payload, EnvelopeTxID reads the last, as TxView and
// UnmarshalTransactionPayload do, and a malformed first one rejects, as it
// does for them.
func TestEnvelopeTxIDRepeatedChannelHeader(t *testing.T) {
	chHdr := func(txID string) []byte {
		return wire.AppendBytes(nil, fPayloadChannelHdr, wire.AppendBytes(nil, fChHdrTxID, []byte(txID)))
	}
	payload := append(chHdr("first"), chHdr("last")...)
	got, err := EnvelopeTxID(&Envelope{PayloadBytes: payload})
	if err != nil || got != "last" {
		t.Fatalf("EnvelopeTxID = %q, %v; want the last channel header's", got, err)
	}
	bad := wire.AppendBytes(nil, fPayloadChannelHdr, []byte{0x08}) // a varint tag with no value
	if _, err := EnvelopeTxID(&Envelope{PayloadBytes: append(bad, chHdr("last")...)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a malformed first channel header: err %v, want ErrMalformed", err)
	}
}
