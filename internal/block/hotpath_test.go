package block

import (
	"bytes"
	"testing"

	"bmac/internal/identity"
	"bmac/internal/wire"
)

// testBlock builds a small signed block via the regular builder path.
func testBlock(t testing.TB, txs int) *Block {
	t.Helper()
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	orderer, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]Envelope, 0, txs)
	for i := 0; i < txs; i++ {
		env, err := NewEndorsedEnvelope(TxSpec{
			Creator:   client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: RWSet{
				Reads:  []KVRead{{Key: "a"}},
				Writes: []KVWrite{{Key: "b", Value: []byte("v")}},
			},
			Endorsers: []*identity.Identity{peer},
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := NewBlock(7, []byte("prevhash"), envs, orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceMarshal is the pre-optimization append-grow encoder, kept here
// so the exact-size Marshal is pinned byte-for-byte against it.
func referenceMarshal(b *Block) []byte {
	marshalMeta := func(m *Metadata) []byte {
		var sig []byte
		sig = wire.AppendBytes(sig, 1, m.Signature.Creator)
		sig = wire.AppendBytes(sig, 2, m.Signature.Nonce)
		sig = wire.AppendBytes(sig, 3, m.Signature.Signature)
		var out []byte
		out = wire.AppendBytes(out, 1, sig)
		out = wire.AppendBytes(out, 2, m.ValidationFlags)
		out = wire.AppendBytes(out, 3, m.CommitHash)
		return out
	}
	var hdr []byte
	hdr = wire.AppendUint(hdr, 1, b.Header.Number)
	hdr = wire.AppendBytes(hdr, 2, b.Header.PreviousHash)
	hdr = wire.AppendBytes(hdr, 3, b.Header.DataHash)
	var out []byte
	out = wire.AppendBytes(out, 1, hdr)
	var data []byte
	for i := range b.Envelopes {
		var env []byte
		env = wire.AppendBytes(env, 1, b.Envelopes[i].PayloadBytes)
		env = wire.AppendBytes(env, 2, b.Envelopes[i].Signature)
		data = wire.AppendBytesAlways(data, 1, env)
	}
	out = wire.AppendBytes(out, 2, data)
	out = wire.AppendBytes(out, 3, marshalMeta(&b.Metadata))
	return out
}

// TestMarshalExactSize pins the size-precomputed encoder against the
// append-grow reference: identical bytes, and Size reports the exact
// length (so Marshal's one allocation never grows).
func TestMarshalExactSize(t *testing.T) {
	blocks := []*Block{
		{}, // empty everything: all fields elided
		{Header: Header{Number: 300}},
		{Envelopes: []Envelope{{}}}, // empty envelope still emits a data element
		testBlock(t, 3),
	}
	b4 := testBlock(t, 2)
	b4.Metadata.ValidationFlags = []byte{0, 1}
	b4.Metadata.CommitHash = []byte("commit")
	blocks = append(blocks, b4)

	for i, b := range blocks {
		want := referenceMarshal(b)
		got := Marshal(b)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: exact-size marshal differs from reference (%d vs %d bytes)", i, len(got), len(want))
		}
		if Size(b) != len(want) {
			t.Fatalf("block %d: Size=%d, marshaled %d bytes", i, Size(b), len(want))
		}
		if len(got) > 0 {
			rt, err := Unmarshal(got)
			if err != nil {
				t.Fatalf("block %d: round trip: %v", i, err)
			}
			if !bytes.Equal(Marshal(rt), want) {
				t.Fatalf("block %d: re-marshal differs", i)
			}
		}
	}
}

// TestUnmarshalRejectsTrailingGarbage pins the strict top-level decode: a
// valid block record followed by junk must fail instead of decoding
// silently (the junk used to be skipped as unknown fields).
func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	raw := Marshal(testBlock(t, 1))
	if _, err := Unmarshal(raw); err != nil {
		t.Fatalf("clean block: %v", err)
	}
	junks := [][]byte{
		{0x0a, 0x00},                   // duplicate (empty) header field
		{0x12, 0x00},                   // duplicate (empty) data field
		{0x1a, 0x00},                   // duplicate (empty) metadata field
		{0x20, 0x01},                   // unknown field 4, varint — used to be skipped
		{0x22, 0x03, 0x01, 0x02, 0x03}, // unknown field 4, bytes
		{0x08, 0x01},                   // header field with varint wire type
		[]byte("garbage"),              // arbitrary junk
		{0x00},                         // field number 0
		{0x0a},                         // truncated tag+length
	}
	for i, junk := range junks {
		if _, err := Unmarshal(append(append([]byte(nil), raw...), junk...)); err == nil {
			t.Fatalf("junk %d (% x): trailing garbage decoded silently", i, junk)
		}
	}
}

// TestUnmarshalAliasesAndCopyDetaches pins the zero-copy contract both
// ways: Unmarshal aliases its input (mutating the buffer shows through),
// UnmarshalCopy does not.
func TestUnmarshalAliasesAndCopyDetaches(t *testing.T) {
	b := testBlock(t, 1)
	raw := Marshal(b)

	aliased, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	detached, err := UnmarshalCopy(raw)
	if err != nil {
		t.Fatal(err)
	}
	payloadBefore := append([]byte(nil), aliased.Envelopes[0].PayloadBytes...)
	for i := range raw {
		raw[i] ^= 0xff
	}
	if bytes.Equal(aliased.Envelopes[0].PayloadBytes, payloadBefore) {
		t.Fatal("Unmarshal result did not alias the input buffer")
	}
	if !bytes.Equal(detached.Envelopes[0].PayloadBytes, payloadBefore) {
		t.Fatal("UnmarshalCopy result aliases the input buffer")
	}
}

// TestAppendBlockPooled checks the pooled marshal path: consecutive
// marshals through wire.GetBuf/PutBuf produce correct bytes even though
// the backing buffer is recycled, and the data written before PutBuf is
// never clobbered mid-use.
func TestAppendBlockPooled(t *testing.T) {
	b1 := testBlock(t, 2)
	b2 := testBlock(t, 1)
	want1, want2 := Marshal(b1), Marshal(b2)
	for i := 0; i < 4; i++ {
		buf := wire.GetBuf(Size(b1))
		out := AppendBlock(buf, b1)
		if !bytes.Equal(out, want1) {
			t.Fatalf("iter %d: pooled marshal of b1 differs", i)
		}
		copied := append([]byte(nil), out...)
		wire.PutBuf(out)
		buf2 := wire.GetBuf(Size(b2))
		out2 := AppendBlock(buf2, b2)
		if !bytes.Equal(out2, want2) {
			t.Fatalf("iter %d: pooled marshal of b2 differs", i)
		}
		if !bytes.Equal(copied, want1) {
			t.Fatalf("iter %d: copy taken before PutBuf was clobbered", i)
		}
		wire.PutBuf(out2)
	}
}

func BenchmarkMarshalExactSize(b *testing.B) {
	blk := testBlock(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Marshal(blk)
	}
}

func BenchmarkAppendBlockPooled(b *testing.B) {
	blk := testBlock(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendBlock(wire.GetBuf(Size(blk)), blk)
		wire.PutBuf(buf)
	}
}

func BenchmarkUnmarshalZeroCopy(b *testing.B) {
	raw := Marshal(testBlock(b, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}
