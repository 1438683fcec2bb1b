package block

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bmac/internal/identity"
)

// smallbankPayload is the payload of a smallbank-shaped transaction: two
// endorsements, two reads and two writes.
func smallbankPayload(t testing.TB) []byte {
	t.Helper()
	n := identity.NewNetwork([]byte("txview"))
	var ids []*identity.Identity
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		for _, role := range []identity.Role{identity.RoleClient, identity.RolePeer} {
			id, err := n.NewIdentity(org, role)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	env, err := NewEndorsedEnvelope(TxSpec{
		Creator:   ids[0],
		Chaincode: "smallbank",
		Channel:   "ch1",
		RWSet: RWSet{
			Reads: []KVRead{
				{Key: "checking_17", Version: Version{BlockNum: 3, TxNum: 1}},
				{Key: "savings_17", Version: Version{BlockNum: 2}},
			},
			Writes: []KVWrite{
				{Key: "checking_17", Value: []byte("100")},
				{Key: "savings_17", Value: []byte("250")},
			},
		},
		Endorsers: []*identity.Identity{ids[1], ids[3]},
	})
	if err != nil {
		t.Fatal(err)
	}
	return env.PayloadBytes
}

// decodeStructs is what the view must agree with: the payload through the
// struct decoders, then its proposal response.
func decodeStructs(payload []byte) (*Transaction, *ProposalResponsePayload, error) {
	tx, err := UnmarshalTransactionPayload(payload)
	if err != nil {
		return nil, nil, err
	}
	prp, err := UnmarshalProposalResponsePayload(tx.Payload.Action.ProposalResponseBytes)
	if err != nil {
		return nil, nil, err
	}
	return tx, prp, nil
}

// checkViewMatches holds NewTxView to the struct decoders on payload: the
// same accept or reject, and on accept the same creator, TxID, chaincode
// name, proposal response bytes, endorsements, reads and writes. It also
// checks that the view never writes its input.
func checkViewMatches(t *testing.T, payload []byte) {
	t.Helper()
	orig := bytes.Clone(payload)
	tx, prp, werr := decodeStructs(payload)
	v, err := NewTxView(payload)
	if !bytes.Equal(payload, orig) {
		t.Fatal("NewTxView wrote its input")
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("view error %v, struct decoders' %v, on %x", err, werr, payload)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("view rejected with %v, not ErrMalformed", err)
		}
		if v.Creator() != nil || v.NumEndorsements() != 0 || v.NumReads() != 0 || v.NumWrites() != 0 {
			t.Fatal("NewTxView returned a view with its error")
		}
		return
	}
	if !bytes.Equal(v.Creator(), tx.SignatureHeader.Creator) ||
		string(v.TxID()) != tx.ChannelHeader.TxID ||
		string(v.ChaincodeName()) != tx.ChannelHeader.ChaincodeName ||
		!bytes.Equal(v.ProposalResponseBytes(), tx.Payload.Action.ProposalResponseBytes) {
		t.Fatalf("view header fields differ from the struct decoders' on %x", payload)
	}
	ends := tx.Payload.Action.Endorsements
	if v.NumEndorsements() != len(ends) {
		t.Fatalf("%d endorsements in the view, %d decoded", v.NumEndorsements(), len(ends))
	}
	for i := range ends {
		if e := v.Endorsement(i); !bytes.Equal(e.Endorser, ends[i].Endorser) || !bytes.Equal(e.Signature, ends[i].Signature) {
			t.Fatalf("endorsement %d differs", i)
		}
	}
	checkIdentitiesMatch(t, payload, &v)
	rw := &prp.Extension.Results
	var reads []KVRead
	for key, ver := range v.Reads() {
		reads = append(reads, KVRead{Key: string(key), Version: ver})
	}
	if len(reads) != len(rw.Reads) || v.NumReads() != len(rw.Reads) {
		t.Fatalf("%d reads in the view (%d counted), %d decoded", len(reads), v.NumReads(), len(rw.Reads))
	}
	for i := range reads {
		if reads[i] != rw.Reads[i] {
			t.Fatalf("read %d: view %+v, decoded %+v", i, reads[i], rw.Reads[i])
		}
	}
	writes := v.AppendWrites(nil)
	if len(writes) != len(rw.Writes) || v.NumWrites() != len(rw.Writes) {
		t.Fatalf("%d writes in the view (%d counted), %d decoded", len(writes), v.NumWrites(), len(rw.Writes))
	}
	for i := range writes {
		if writes[i].Key != rw.Writes[i].Key || !bytes.Equal(writes[i].Value, rw.Writes[i].Value) {
			t.Fatalf("write %d: view %+v, decoded %+v", i, writes[i], rw.Writes[i])
		}
	}
}

// checkIdentitiesMatch holds AppendIdentities to the view v of payload:
// it accepts, and returns the very fields Creator, ActionCreator and
// Endorsements return, in that order.
func checkIdentitiesMatch(t *testing.T, payload []byte, v *TxView) {
	t.Helper()
	ids, err := AppendIdentities(nil, payload)
	if err != nil {
		t.Fatalf("AppendIdentities rejects a payload the view accepts: %v", err)
	}
	want := [][]byte{v.Creator(), v.ActionCreator()}
	for e := range v.Endorsements() {
		want = append(want, e.Endorser)
	}
	if len(ids) != len(want) {
		t.Fatalf("AppendIdentities found %d identities, the view %d", len(ids), len(want))
	}
	for i := range want {
		if len(ids[i]) != len(want[i]) || len(ids[i]) > 0 && &ids[i][0] != &want[i][0] {
			t.Fatalf("identity %d: AppendIdentities and the view read different fields", i)
		}
	}
}

// TestAppendIdentities checks the identity walk on a smallbank payload —
// the creator, its copy in the action header and both endorsers, appended
// after what dst holds, with no allocation once dst has room — and that it
// accepts a payload whose proposal response NewTxView rejects, since it
// never reads it.
func TestAppendIdentities(t *testing.T) {
	payload := smallbankPayload(t)
	v, err := NewTxView(payload)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := AppendIdentities([][]byte{[]byte("kept")}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || string(ids[0]) != "kept" || !bytes.Equal(ids[1], v.Creator()) || !bytes.Equal(ids[2], v.Creator()) ||
		!bytes.Equal(ids[3], v.Endorsement(0).Endorser) || !bytes.Equal(ids[4], v.Endorsement(1).Endorser) {
		t.Fatalf("AppendIdentities: %d entries, want kept, creator twice and two endorsers", len(ids))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ids, err = AppendIdentities(ids[:0], payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendIdentities into a reused dst: %.1f allocations, want 0", allocs)
	}

	tx, err := UnmarshalTransactionPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	tx.Payload.Action.ProposalResponseBytes = []byte{0xff}
	broken := MarshalTransactionPayload(tx)
	if _, err := NewTxView(broken); err == nil {
		t.Fatal("NewTxView accepted a proposal response that does not parse")
	}
	got, err := AppendIdentities(nil, broken)
	if err != nil || len(got) != 4 || !bytes.Equal(got[0], v.Creator()) || !bytes.Equal(got[3], v.Endorsement(1).Endorser) {
		t.Fatalf("AppendIdentities on a broken proposal response: %d identities, %v", len(got), err)
	}
	if _, err := AppendIdentities(nil, payload[:len(payload)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendIdentities on a truncated payload: %v, want ErrMalformed", err)
	}
}

// viewSeeds are FuzzTxView's seeds: the hostile table's block, its
// envelopes' payloads and its malformed encodings, a smallbank payload,
// and seeded random transactions whose proposal responses are well formed
// as often as not.
func viewSeeds(t testing.TB) [][]byte {
	valid := hostileBlockBytes(t)
	seeds := [][]byte{valid, smallbankPayload(t)}
	b, err := Unmarshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range b.Envelopes {
		seeds = append(seeds, env.PayloadBytes)
	}
	for _, c := range hostileCases(t, valid) {
		seeds = append(seeds, c.data)
	}
	g := gen{rand.New(rand.NewSource(62))}
	for i := 0; i < 32; i++ {
		tx := g.transaction()
		if i%2 == 0 {
			p := g.prp()
			tx.Payload.Action.ProposalResponseBytes = MarshalProposalResponsePayload(&p)
		}
		seeds = append(seeds, MarshalTransactionPayload(&tx))
	}
	return seeds
}

// FuzzTxView holds the view to the struct decoders on every input.
func FuzzTxView(f *testing.F) {
	for _, s := range viewSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkViewMatches)
}

// TestTxViewMatchesDecoders runs checkViewMatches over more inputs than
// FuzzTxView's seeds can carry without eating its time: every strict
// prefix of a smallbank payload and of a random transaction's with a
// well-formed proposal response, three bit flips at every byte of each,
// and seeded random transactions (empty fields, every varint width, 0–4
// endorsements) whose proposal responses are random bytes or, three times
// in four, well formed.
func TestTxViewMatchesDecoders(t *testing.T) {
	g := gen{rand.New(rand.NewSource(7))}
	tx, p := g.transaction(), g.prp()
	tx.Payload.Action.ProposalResponseBytes = MarshalProposalResponsePayload(&p)
	for _, payload := range [][]byte{smallbankPayload(t), MarshalTransactionPayload(&tx)} {
		for n := range len(payload) {
			checkViewMatches(t, bytes.Clone(payload[:n]))
		}
		for i := range payload {
			for _, mask := range []byte{0x01, 0x40, 0x80} {
				mut := bytes.Clone(payload)
				mut[i] ^= mask
				checkViewMatches(t, mut)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		tx := g.transaction()
		if i%4 != 0 {
			p := g.prp()
			tx.Payload.Action.ProposalResponseBytes = MarshalProposalResponsePayload(&p)
		}
		checkViewMatches(t, MarshalTransactionPayload(&tx))
	}
}

// TestTxViewNoAllocs holds the view to its promise: validating a payload
// and reading every field the validation path reads allocates nothing.
func TestTxViewNoAllocs(t *testing.T) {
	payload := smallbankPayload(t)
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		v, err := NewTxView(payload)
		if err != nil {
			t.Fatal(err)
		}
		n = len(v.Creator()) + len(v.TxID()) + len(v.ChaincodeName()) + len(v.ProposalResponseBytes())
		for i := range v.NumEndorsements() {
			e := v.Endorsement(i)
			n += len(e.Endorser) + len(e.Signature)
		}
		for key, ver := range v.Reads() {
			n += len(key) + int(ver.BlockNum)
		}
		for key, val := range v.Writes() {
			n += len(key) + len(val)
		}
	})
	if allocs != 0 {
		t.Fatalf("NewTxView and its accessors: %.1f allocations, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("the view read nothing")
	}
}

// BenchmarkTxView compares the view's validating walk with the struct
// decoders on a smallbank payload, and times one pass of the accessors the
// engine reads: every endorsement, read and write.
func BenchmarkTxView(b *testing.B) {
	payload := smallbankPayload(b)
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := NewTxView(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structs", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := decodeStructs(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("accessors", func(b *testing.B) {
		v, err := NewTxView(payload)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		n := 0
		for range b.N {
			for i := range v.NumEndorsements() {
				n += len(v.Endorsement(i).Signature)
			}
			for key, ver := range v.Reads() {
				n += len(key) + int(ver.TxNum)
			}
			for key, val := range v.Writes() {
				n += len(key) + len(val)
			}
		}
		if n == 0 {
			b.Fatal("the accessors read nothing")
		}
	})
}
