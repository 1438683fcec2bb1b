package bmacproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
	"bmac/internal/wire"
)

// cachedCert is one entry of the oracle's sweep list.
type cachedCert struct {
	id   identity.EncodedID
	cert []byte
}

// stripBySubstring is the sender's former DataRemover, kept as the
// differential oracle: it searches the section for the bytes of every
// registered certificate, wherever they occur, instead of locating the
// identity fields. Cost O(len(certs) · len(data)).
func stripBySubstring(data []byte, certs []cachedCert) (stripped []byte, locs []Locator) {
	type match struct {
		off, len int
		id       identity.EncodedID
	}
	var matches []match
	for _, c := range certs {
		for start := 0; ; {
			i := bytes.Index(data[start:], c.cert)
			if i < 0 {
				break
			}
			matches = append(matches, match{start + i, len(c.cert), c.id})
			start += i + len(c.cert)
		}
	}
	if len(matches) == 0 {
		return data, nil
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].off < matches[j].off })
	prev := 0
	for _, m := range matches {
		if m.off < prev {
			continue // overlap: keep the earlier match
		}
		stripped = append(stripped, data[prev:m.off]...)
		locs = append(locs, Locator{Offset: uint32(m.off), ID: m.id})
		prev = m.off + m.len
	}
	return append(stripped, data[prev:]...), locs
}

func (f *fixture) sweepList() []cachedCert {
	var certs []cachedCert
	for _, id := range f.net.Identities() {
		if _, ok := f.sendCache.IDForCert(id.Cert); ok {
			certs = append(certs, cachedCert{id.ID, id.Cert})
		}
	}
	return certs
}

// checkAgainstOracle encodes blk and holds every packet to the oracle:
// re-inserting the identities gives back the original section, and the
// substring sweep over that section yields the same stripped bytes and the
// same locators as the walk did.
func (f *fixture) checkAgainstOracle(t *testing.T, blk *block.Block, certs []cachedCert) {
	t.Helper()
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) != len(blk.Envelopes)+2 {
		t.Fatalf("block %d: %d packets for %d txs", blk.Header.Number, len(packets), len(blk.Envelopes))
	}
	for i, raw := range packets {
		pkt, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := insertIdentities(nil, pkt.Payload, pkt.Locators, f.recvCache)
		if err != nil {
			t.Fatalf("block %d packet %d: %v", blk.Header.Number, i, err)
		}
		if pkt.Type == SectionTx && !bytes.Equal(orig, block.MarshalEnvelope(&blk.Envelopes[pkt.Seq])) {
			t.Fatalf("block %d tx %d: reconstruction is not the marshalled envelope", blk.Header.Number, pkt.Seq)
		}
		wantStripped, wantLocs := stripBySubstring(orig, certs)
		if !bytes.Equal(pkt.Payload, wantStripped) || !reflect.DeepEqual(pkt.Locators, wantLocs) {
			t.Fatalf("block %d packet %d (%s): walk and substring sweep differ\n walk   %d bytes, locators %v\n oracle %d bytes, locators %v",
				blk.Header.Number, i, pkt.Type, len(pkt.Payload), pkt.Locators, len(wantStripped), wantLocs)
		}
	}
}

// TestWalkMatchesSubstringSweep is the differential test for the sender's
// byte boundary: on generated blocks — uniform and Zipf keys, 1–4
// endorsements, a creator that also endorses, a creator the cache never
// saw, 1-tx and 250-tx blocks — locating identity fields by the schema and
// sweeping for certificate bytes agree byte for byte.
func TestWalkMatchesSubstringSweep(t *testing.T) {
	f := newFixture(t)
	peers := []*identity.Identity{f.e1, f.e2}
	for _, org := range []string{"Org3", "Org4"} {
		if _, err := f.net.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		p, err := f.net.NewIdentity(org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.sender.RegisterIdentity(p.ID, p.Cert); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	stranger, err := f.net.NewIdentity("Org2", identity.RoleClient) // never registered
	if err != nil {
		t.Fatal(err)
	}
	certs := f.sweepList()
	if len(certs) != 6 {
		t.Fatalf("sweep list has %d identities, want 6", len(certs))
	}

	rng := rand.New(rand.NewSource(25))
	zipf := rand.NewZipf(rng, 1.2, 1, 9999)
	key := func(hot bool) string {
		if hot {
			return fmt.Sprintf("acct%d", zipf.Uint64())
		}
		return fmt.Sprintf("acct%d", rng.Intn(10000))
	}
	envelope := func(hot bool) block.Envelope {
		spec := block.TxSpec{Creator: f.client, Chaincode: "smallbank", Channel: "ch1"}
		switch rng.Intn(8) {
		case 0:
			spec.Creator = stranger
		case 1:
			spec.Creator = peers[0] // also the first endorser below
		}
		spec.Endorsers = peers[:1+rng.Intn(len(peers))]
		for i := rng.Intn(4); i > 0; i-- {
			spec.RWSet.Reads = append(spec.RWSet.Reads, block.KVRead{Key: key(hot), Version: block.Version{BlockNum: uint64(rng.Intn(50))}})
		}
		for i := rng.Intn(4); i > 0; i-- {
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			spec.RWSet.Writes = append(spec.RWSet.Writes, block.KVWrite{Key: key(hot), Value: val})
		}
		env, err := block.NewEndorsedEnvelope(spec)
		if err != nil {
			t.Fatal(err)
		}
		return *env
	}

	total := 0
	for num, size := range []int{1, 250, 1, 100, 250, 7, 250, 100, 1, 100} {
		envs := make([]block.Envelope, size)
		for i := range envs {
			envs[i] = envelope(num%2 == 1)
		}
		blk, err := block.NewBlock(uint64(num), nil, envs, f.orderer)
		if err != nil {
			t.Fatal(err)
		}
		f.checkAgainstOracle(t, blk, certs)
		total += size
	}
	if total < 1000 {
		t.Fatalf("only %d envelopes generated", total)
	}
}

// TestEncodeBlockConcurrent: concurrent encodings of one block each take
// an encoder of their own and come out byte-identical (run under -race in
// the race shard).
func TestEncodeBlockConcurrent(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 1, 20)
	want, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, err := f.sender.EncodeBlock(blk)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent EncodeBlock diverged (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFailedRegistrationChangesNothing: a certificate that does not parse,
// or whose cache-sync packet the sink refuses, must leave the sender as it
// was — its bytes used to stay strippable under an ID the receiver never
// learned, and the next block carrying them died with an identity cache
// miss. Such a block goes inline and reconstructs bit-exactly.
func TestFailedRegistrationChangesNothing(t *testing.T) {
	f := newFixture(t)
	late, err := f.net.NewIdentity("Org2", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	garbage := &identity.Identity{ID: identity.Encode(9, identity.RoleClient, 0), Cert: bytes.Repeat([]byte("not a certificate "), 40)}

	syncsBefore := f.recv.Stats().CacheSyncs
	if err := f.sender.RegisterIdentity(garbage.ID, garbage.Cert); err == nil {
		t.Fatal("unparsable certificate registered")
	}
	if got := f.recv.Stats().CacheSyncs; got != syncsBefore {
		t.Errorf("unparsable certificate was announced to the receiver (%d cache syncs, was %d)", got, syncsBefore)
	}
	sinkErr := errors.New("link down")
	refused := NewSender(f.sendCache, SinkFunc(func([]byte) error { return sinkErr }))
	if err := refused.RegisterIdentity(late.ID, late.Cert); !errors.Is(err, sinkErr) {
		t.Fatalf("refused sync: err = %v, want %v", err, sinkErr)
	}
	for _, id := range []*identity.Identity{garbage, late} {
		if _, ok := f.sendCache.IDForCert(id.Cert); ok {
			t.Fatalf("%s entered the sender's cache although registration failed", id.ID)
		}
	}

	// Blocks whose creator fields carry those bytes: inline, exact.
	for num, creator := range [][]byte{garbage.Cert, late.Cert} {
		envs := f.makeBlock(t, uint64(num), 2).Envelopes
		tx, err := block.UnmarshalTransactionPayload(envs[1].PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		tx.SignatureHeader.Creator = creator
		envs[1].PayloadBytes = block.MarshalTransactionPayload(tx)
		blk, err := block.NewBlock(uint64(num), nil, envs, f.orderer)
		if err != nil {
			t.Fatal(err)
		}
		f.checkAgainstOracle(t, blk, f.sweepList())
		if _, err := f.sender.SendBlock(blk); err != nil {
			t.Fatal(err)
		}
		ab := <-f.recv.Blocks()
		if !ab.DataHashOK {
			t.Errorf("block %d: data hash mismatch after reconstruction", num)
		}
		for i := range blk.Envelopes {
			if !bytes.Equal(block.MarshalEnvelope(&ab.Block.Envelopes[i]), block.MarshalEnvelope(&blk.Envelopes[i])) {
				t.Errorf("block %d envelope %d not byte-identical", num, i)
			}
		}
	}
}

// parseLocators reads a fuzzer-supplied locator list: 6 bytes each, offset
// then an index into ids (one past the end names an id no cache holds).
func parseLocators(raw []byte, ids []identity.EncodedID) []Locator {
	var locs []Locator
	for ; len(raw) >= 6; raw = raw[6:] {
		id := identity.EncodedID(0xffff)
		if i := int(binary.BigEndian.Uint16(raw[4:])) % (len(ids) + 1); i < len(ids) {
			id = ids[i]
		}
		locs = append(locs, Locator{Offset: binary.BigEndian.Uint32(raw), ID: id})
	}
	return locs
}

// FuzzStripInsertRoundTrip fuzzes both directions of the byte boundary.
// Sender: arbitrary bytes as an envelope payload never panic EncodeBlock,
// a payload the walk cannot follow is sent unstripped, and what the
// receiver re-inserts is the marshalled envelope. The receiver assembles
// the block from the packets, and its FIFO entries are the fields
// block.NewTxView reads, or one tx entry marked Malformed exactly when the
// view rejects the payload (see checkReceived). Both halves append: after
// a non-empty prefix of dst, with and without room to spare, stripping
// appends what the packet carries and inserting appends the envelope, the
// prefix untouched. Receiver: arbitrary (descending, out-of-range,
// overflowing) locator lists over arbitrary bytes either error and leave
// dst as it was, or append to it the stripped bytes and the named
// certificates in order, in memory that is not the input's.
func FuzzStripInsertRoundTrip(f *testing.F) {
	fx := newFixture(f)
	var ids []identity.EncodedID
	for _, id := range fx.net.Identities() {
		ids = append(ids, id.ID)
	}
	blk := fx.makeBlock(f, 0, 1)
	payload := blk.Envelopes[0].PayloadBytes
	loc := func(off uint32, idx uint16) []byte {
		return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, off), idx)
	}
	f.Add(payload, []byte(nil))
	// The same fields, data before signature header: identity fields out
	// of ascending order, which the sender must send whole.
	var reordered []byte
	for _, num := range []int{xPayloadData, xPayloadSigHdr, xPayloadChHdr} {
		reordered = wire.AppendBytes(reordered, num, subField(payload, num))
	}
	f.Add(reordered, []byte(nil))
	f.Add(payload[:len(payload)/2], loc(0, 0))
	// Hostile locator lists (descending, out of range, offset + length
	// overflowing, overlapping, unknown id) are in the committed corpus.

	f.Fuzz(func(t *testing.T, data, rawLocs []byte) {
		// Sender side.
		env := block.Envelope{PayloadBytes: data, Signature: []byte{0x30, 0x02, 0x01, 0x01}}
		blk, err := block.NewBlock(0, nil, []block.Envelope{env}, fx.orderer)
		if err != nil {
			t.Fatal(err)
		}
		packets, _, err := fx.sender.EncodeBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		fx.checkReceived(t, env, packets)
		pkt, err := Decode(packets[1])
		if err != nil {
			t.Fatal(err)
		}
		envBytes := block.MarshalEnvelope(&env)
		var lay txLayout
		walkable := false
		if p, ok := field(envBytes, span{0, len(envBytes)}, xEnvPayload); ok {
			walkable = lay.locate(envBytes, p) == nil
		}
		if !walkable && (len(pkt.Locators) != 0 || !bytes.Equal(pkt.Payload, envBytes)) {
			t.Fatalf("malformed payload was stripped: %d locators", len(pkt.Locators))
		}
		prefix := []byte("dst prefix")
		dst := func() []byte { // room to spare for every other input
			return append(make([]byte, 0, len(prefix)+len(data)%2*len(envBytes)), prefix...)
		}
		if walkable {
			fields := []span{lay.creator, lay.actionCreator}
			for _, e := range lay.ends {
				fields = append(fields, e.endorser)
			}
			stripped, locs := stripIdentities(dst(), []Locator{{Offset: 7, ID: 7}}, envBytes, fields, fx.sendCache)
			if !bytes.Equal(stripped[:len(prefix)], prefix) || !bytes.Equal(stripped[len(prefix):], pkt.Payload) ||
				locs[0] != (Locator{Offset: 7, ID: 7}) || !slices.Equal(locs[1:], pkt.Locators) {
				t.Fatal("appending strip differs from the packet EncodeBlock sent")
			}
		}
		back, err := insertIdentities(dst(), pkt.Payload, pkt.Locators, fx.recvCache)
		if err != nil || !bytes.Equal(back[:len(prefix)], prefix) || !bytes.Equal(back[len(prefix):], envBytes) {
			t.Fatalf("insert(strip(x)) != x (err %v)", err)
		}

		// Receiver side, hostile locators.
		locs := parseLocators(rawLocs, ids)
		before := append([]byte(nil), data...)
		out, err := insertIdentities(dst(), data, locs, fx.recvCache)
		if !bytes.Equal(data, before) {
			t.Fatal("insertIdentities wrote to its input")
		}
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatal("insertIdentities changed the prefix of dst")
		}
		if out = out[len(prefix):]; err != nil {
			if len(out) != 0 {
				t.Fatalf("failed insert left %d bytes after the prefix", len(out))
			}
			return
		}
		if len(locs) == 0 {
			return
		}
		want, pos := []byte(nil), 0
		for _, l := range locs {
			cert, _ := fx.recvCache.CertForID(l.ID)
			gap := int(l.Offset) - len(want)
			want = append(append(want, data[pos:pos+gap]...), cert...)
			pos += gap
		}
		if want = append(want, data[pos:]...); !bytes.Equal(out, want) {
			t.Fatal("accepted locator list reconstructed the wrong bytes")
		}
		for i := range out {
			out[i] ^= 0xff
		}
		if !bytes.Equal(data, before) {
			t.Fatal("reconstruction aliases the stripped input")
		}
	})
}

// checkReceived runs the packets of a one-envelope block through f's
// receiver and holds what comes out to block.NewTxView of env's payload: the
// block assembles with env in it and a good data hash, and the FIFOs hold
// one tx entry with the view's chaincode and counts, followed by the view's
// endorsements, reads and writes — or, when the view rejects the payload,
// one tx entry marked Malformed and nothing else. The fixture has no block
// processor draining the FIFOs while the receiver writes them, so a payload
// with more entries than a FIFO holds is not sent.
func (f *fixture) checkReceived(t *testing.T, env block.Envelope, packets [][]byte) {
	t.Helper()
	v, verr := block.NewTxView(env.PayloadBytes)
	if verr == nil && (v.NumEndorsements() > f.bufs.Ends.Cap() || v.NumReads() > f.bufs.Rdset.Cap() || v.NumWrites() > f.bufs.Wrset.Cap()) {
		return
	}
	for i, p := range packets {
		if err := f.recv.ProcessPacket(p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	select {
	case ab := <-f.recv.Blocks():
		got := ab.Block.Envelopes
		if !ab.DataHashOK || len(got) != 1 || !bytes.Equal(got[0].PayloadBytes, env.PayloadBytes) || !bytes.Equal(got[0].Signature, env.Signature) {
			t.Fatalf("assembled block: data hash ok %v, %d envelopes", ab.DataHashOK, len(got))
		}
	default:
		t.Fatalf("no block assembled (%d pending)", f.recv.PendingBlocks())
	}
	if _, ok := f.bufs.Block.TryPop(); !ok {
		t.Fatal("no block entry")
	}
	tx, ok := f.bufs.Tx.TryPop()
	ends, reads, writes := drainAll(f.bufs.Ends), drainAll(f.bufs.Rdset), drainAll(f.bufs.Wrset)
	if _, more := f.bufs.Tx.TryPop(); !ok || more {
		t.Fatalf("want one tx entry, got ok %v, more %v", ok, more)
	}
	if verr != nil {
		if !tx.Malformed || len(ends)+len(reads)+len(writes) != 0 {
			t.Fatalf("view rejects the payload (%v): tx entry malformed %v, %d ends, %d reads, %d writes", verr, tx.Malformed, len(ends), len(reads), len(writes))
		}
		return
	}
	if tx.Malformed || tx.CCName != string(v.ChaincodeName()) || tx.NumEnds != len(ends) || tx.NumEnds != v.NumEndorsements() ||
		tx.RdsetSize != len(reads) || tx.RdsetSize != v.NumReads() || tx.WrsetSize != len(writes) || tx.WrsetSize != v.NumWrites() {
		t.Fatalf("tx entry %+v with %d ends, %d reads, %d writes; the view reads chaincode %q, %d, %d, %d",
			tx, len(ends), len(reads), len(writes), v.ChaincodeName(), v.NumEndorsements(), v.NumReads(), v.NumWrites())
	}
	if tx.Verify.Digest != fabcrypto.Hash(env.PayloadBytes) && !tx.Verify.Malformed {
		t.Fatal("tx entry's request is not over the payload")
	}
	for i, e := range ends {
		want := v.Endorsement(i)
		id, _ := f.recvCache.IDForCert(want.Endorser)
		if e.EndorserID != id || !e.Verify.Malformed && e.Verify.Digest != block.EndorsementDigest(v.ProposalResponseBytes(), want.Endorser) {
			t.Fatalf("ends entry %d: endorser %s, want %s", i, e.EndorserID, id)
		}
	}
	i := 0
	for key, ver := range v.Reads() {
		if r := reads[i].Read; r.Key != string(key) || r.Version != ver {
			t.Fatalf("read %d: %q@%v, the view reads %q@%v", i, r.Key, r.Version, key, ver)
		}
		i++
	}
	i = 0
	for key, val := range v.Writes() {
		if w := writes[i].Write; w.Key != string(key) || !bytes.Equal(w.Value, val) {
			t.Fatalf("write %d: %q=%x, the view reads %q=%x", i, w.Key, w.Value, key, val)
		}
		i++
	}
}

func drainAll[T any](f *fifo.FIFO[T]) (out []T) {
	for v, ok := f.TryPop(); ok; v, ok = f.TryPop() {
		out = append(out, v)
	}
	return out
}

// TestHostilePointerAnnotation: a pointer whose offset + length wraps 32
// bits used to pass the receiver's range check and panic the slice; it
// must be ignored in favour of the scan, like any out-of-range pointer.
func TestHostilePointerAnnotation(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 0, 1)
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(packets[1])
	if err != nil {
		t.Fatal(err)
	}
	pkt.Pointers = []Pointer{
		{Field: PtrPayload, Offset: 0xffffffff, Length: 2},
		{Field: PtrEnvelopeSignature, Offset: 1, Length: 0xffffffff},
	}
	packets[1] = pkt.Encode()
	for _, p := range packets {
		if err := f.recv.ProcessPacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if ab := <-f.recv.Blocks(); !ab.DataHashOK || len(ab.Block.Envelopes) != 1 {
		t.Errorf("block did not assemble from scanned fields: %+v", ab)
	}
}
