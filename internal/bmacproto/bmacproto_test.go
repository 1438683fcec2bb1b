package bmacproto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
)

// fixture builds a 2-org network with preloaded caches and a ready sender/
// receiver pair over an in-memory link.
type fixture struct {
	net       *identity.Network
	client    *identity.Identity
	orderer   *identity.Identity
	e1, e2    *identity.Identity
	sendCache *identity.Cache
	recvCache *identity.Cache
	bufs      *Buffers
	recv      *Receiver
	sender    *Sender
	link      *MemLink
}

func newFixture(t testing.TB) *fixture {
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
	f := &fixture{
		net:     n,
		client:  mk("Org1", identity.RoleClient),
		orderer: mk("Org1", identity.RoleOrderer),
		e1:      mk("Org1", identity.RolePeer),
		e2:      mk("Org2", identity.RolePeer),
	}
	f.sendCache = identity.NewCache()
	f.recvCache = identity.NewCache()
	f.bufs = NewBuffers()
	f.recv = NewReceiver(f.recvCache, f.bufs)
	f.link = NewMemLink(f.recv)
	f.sender = NewSender(f.sendCache, f.link)
	// Register identities; cache-sync packets flow to the receiver cache.
	if err := f.sender.RegisterNetwork(n); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) makeBlock(t testing.TB, num uint64, txs int) *block.Block {
	t.Helper()
	envs := make([]block.Envelope, 0, txs)
	for i := 0; i < txs; i++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator:   f.client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: block.RWSet{
				Reads:  []block.KVRead{{Key: "acct1", Version: block.Version{BlockNum: 1}}},
				Writes: []block.KVWrite{{Key: "acct1", Value: []byte("42")}},
			},
			Endorsers: []*identity.Identity{f.e1, f.e2},
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	blk, err := block.NewBlock(num, nil, envs, f.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Type:     SectionTx,
		BlockNum: 42,
		Seq:      7,
		NumTxs:   100,
		Locators: []Locator{{Offset: 12, ID: identity.Encode(1, identity.RolePeer, 0)}},
		Pointers: []Pointer{{Field: PtrPayload, Offset: 2, Length: 90}},
		Payload:  []byte("stripped section data"),
	}
	enc := p.Encode()
	if len(enc) != p.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", p.EncodedSize(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.BlockNum != p.BlockNum || got.Seq != p.Seq || got.NumTxs != p.NumTxs {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Locators) != 1 || got.Locators[0] != p.Locators[0] {
		t.Errorf("locators = %+v", got.Locators)
	}
	if len(got.Pointers) != 1 || got.Pointers[0] != p.Pointers[0] {
		t.Errorf("pointers = %+v", got.Pointers)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload mismatch")
	}
}

func TestDecodeRejectsNonBMac(t *testing.T) {
	if _, err := Decode([]byte{0x45, 0x00, 0x01, 0x02}); !errors.Is(err, ErrNotBMac) {
		t.Errorf("err = %v, want ErrNotBMac", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrNotBMac) {
		t.Errorf("nil err = %v, want ErrNotBMac", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	p := &Packet{Type: SectionHeader, BlockNum: 1, Payload: []byte("xyz")}
	enc := p.Encode()
	for _, cut := range []int{3, fixedHeaderLen - 1, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); !errors.Is(err, ErrBadPacket) {
			t.Errorf("cut %d: err = %v, want ErrBadPacket", cut, err)
		}
	}
}

func TestStripInsertRoundTrip(t *testing.T) {
	f := newFixture(t)
	// Build data with two certs embedded.
	data := append([]byte("prefix-"), f.e1.Cert...)
	data = append(data, []byte("-mid-")...)
	data = append(data, f.e2.Cert...)
	data = append(data, []byte("-suffix")...)

	fields := []span{
		{len("prefix-"), len(f.e1.Cert)},
		{len("prefix-") + len(f.e1.Cert) + len("-mid-"), len(f.e2.Cert)},
	}
	stripped, locs := stripIdentities(data, fields, f.sendCache)
	if len(locs) != 2 {
		t.Fatalf("locators = %d, want 2", len(locs))
	}
	saved := len(data) - len(stripped)
	if saved != len(f.e1.Cert)+len(f.e2.Cert) {
		t.Errorf("saved %d bytes, want %d", saved, len(f.e1.Cert)+len(f.e2.Cert))
	}

	back, err := insertIdentities(stripped, locs, f.recvCache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("strip/insert is not lossless")
	}
}

func TestStripRepeatedIdentity(t *testing.T) {
	f := newFixture(t)
	data := append(append([]byte{}, f.e1.Cert...), f.e1.Cert...) // twice
	n := len(f.e1.Cert)
	stripped, locs := stripIdentities(data, []span{{0, n}, {n, n}}, f.sendCache)
	if len(locs) != 2 || len(stripped) != 0 {
		t.Fatalf("locs=%d stripped=%d", len(locs), len(stripped))
	}
	back, err := insertIdentities(stripped, locs, f.recvCache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("repeated identity round trip failed")
	}
}

func TestInsertCacheMiss(t *testing.T) {
	empty := identity.NewCache()
	_, err := insertIdentities([]byte{}, []Locator{{Offset: 0, ID: 0x0101}}, empty)
	if err == nil {
		t.Error("expected cache-miss error")
	}
}

func TestEncodeBlockBandwidthSavings(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 1, 50)
	gossipSize := len(block.Marshal(blk))

	_, stats, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != 52 { // header + 50 tx + metadata
		t.Errorf("packets = %d, want 52", stats.Packets)
	}
	ratio := float64(gossipSize) / float64(stats.Bytes)
	// Paper: 3.4x–5.3x smaller with 2 endorsements. Require at least 2x.
	if ratio < 2 {
		t.Errorf("compression ratio = %.2f, want >= 2 (paper: 3.4-5.3)", ratio)
	}
	t.Logf("gossip=%d bytes, bmac=%d bytes, ratio=%.2fx", gossipSize, stats.Bytes, ratio)
}

func TestEndToEndBlockDelivery(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 0, 5)
	if _, err := f.sender.SendBlock(blk); err != nil {
		t.Fatal(err)
	}

	// Block entry with a valid orderer verification request.
	be, ok := f.bufs.Block.TryPop()
	if !ok {
		t.Fatal("block_fifo empty")
	}
	if be.BlockNum != 0 || be.NumTxs != 5 {
		t.Errorf("block entry = %+v", be)
	}
	if !be.Verify.Execute() {
		t.Error("orderer signature verification request failed")
	}

	// 5 tx entries, each verifying, with correct counts.
	for i := 0; i < 5; i++ {
		te, ok := f.bufs.Tx.TryPop()
		if !ok {
			t.Fatalf("tx_fifo empty at %d", i)
		}
		if te.Seq != i || te.CCName != "smallbank" {
			t.Errorf("tx entry %d = %+v", i, te)
		}
		if te.NumEnds != 2 || te.RdsetSize != 1 || te.WrsetSize != 1 {
			t.Errorf("tx %d counts = %d/%d/%d", i, te.NumEnds, te.RdsetSize, te.WrsetSize)
		}
		if !te.Verify.Execute() {
			t.Errorf("tx %d client signature failed", i)
		}
	}

	// 10 endorsement entries, all verifying, with encoded endorser ids.
	for i := 0; i < 10; i++ {
		ee, ok := f.bufs.Ends.TryPop()
		if !ok {
			t.Fatalf("ends_fifo empty at %d", i)
		}
		if !ee.Verify.Execute() {
			t.Errorf("endorsement %d failed", i)
		}
		wantOrg := uint8(1 + i%2)
		if ee.EndorserID.Org() != wantOrg {
			t.Errorf("endorsement %d org = %d, want %d", i, ee.EndorserID.Org(), wantOrg)
		}
	}

	// Read/write set entries.
	for i := 0; i < 5; i++ {
		re, ok := f.bufs.Rdset.TryPop()
		if !ok || re.Read.Key != "acct1" {
			t.Errorf("rdset %d: %+v ok=%v", i, re, ok)
		}
		we, ok := f.bufs.Wrset.TryPop()
		if !ok || string(we.Write.Value) != "42" {
			t.Errorf("wrset %d: %+v ok=%v", i, we, ok)
		}
	}

	// Assembled block forwarded to the CPU with the data hash verified.
	ab := <-f.recv.Blocks()
	if !ab.DataHashOK {
		t.Error("data hash check failed")
	}
	if len(ab.Block.Envelopes) != 5 {
		t.Errorf("assembled envelopes = %d", len(ab.Block.Envelopes))
	}
	// The reconstructed envelopes must be byte-identical to the originals.
	for i := range blk.Envelopes {
		if !bytes.Equal(block.MarshalEnvelope(&ab.Block.Envelopes[i]),
			block.MarshalEnvelope(&blk.Envelopes[i])) {
			t.Errorf("envelope %d not byte-identical", i)
		}
	}
}

func TestOutOfOrderTxSections(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 3, 4)
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	// packets: [header, tx0, tx1, tx2, tx3, metadata]. Deliver txs reversed.
	order := []int{0, 4, 3, 2, 1, 5}
	for _, idx := range order {
		if err := f.recv.ProcessPacket(packets[idx]); err != nil {
			t.Fatalf("packet %d: %v", idx, err)
		}
	}
	// Tx entries must still come out in sequence order.
	for i := 0; i < 4; i++ {
		te, ok := f.bufs.Tx.TryPop()
		if !ok || te.Seq != i {
			t.Fatalf("tx %d: got seq %d ok=%v", i, te.Seq, ok)
		}
	}
	ab := <-f.recv.Blocks()
	if !ab.DataHashOK {
		t.Error("data hash failed after reorder")
	}
	if f.recv.PendingBlocks() != 0 {
		t.Error("assembly state leaked")
	}
}

// TestUndecodableEnvelopeDoesNotStall: a section whose payload does not
// decode, or whose envelope has no signature field (wire.AppendBytes leaves
// an empty one out), used to fail in the receiver and leave its block
// pending forever. The block assembles with a good data hash, and the
// transaction's tx entry is marked Malformed (the payload) or carries a
// request the engine rejects (the signature).
func TestUndecodableEnvelopeDoesNotStall(t *testing.T) {
	garbage := make([]byte, 200)
	rand.New(rand.NewSource(64)).Read(garbage)
	for _, tc := range []struct {
		name      string
		mutate    func(*block.Envelope)
		malformed bool
	}{
		{"garbage-payload", func(e *block.Envelope) { e.PayloadBytes = garbage }, true},
		{"empty-signature", func(e *block.Envelope) { e.Signature = nil }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			envs := f.makeBlock(t, 0, 3).Envelopes
			tc.mutate(&envs[2])
			blk, err := block.NewBlock(0, nil, envs, f.orderer)
			if err != nil {
				t.Fatal(err)
			}
			packets, _, err := f.sender.EncodeBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range packets {
				if err := f.recv.ProcessPacket(p); err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
			}
			if n := f.recv.PendingBlocks(); n != 0 {
				t.Fatalf("%d blocks pending", n)
			}
			if ab := <-f.recv.Blocks(); !ab.DataHashOK || len(ab.Block.Envelopes) != 3 {
				t.Fatalf("assembled block: data hash ok %v, %d envelopes", ab.DataHashOK, len(ab.Block.Envelopes))
			}
			for i := 0; i < 3; i++ {
				tx, ok := f.bufs.Tx.TryPop()
				if bad := i == 2; !ok || tx.Malformed != (bad && tc.malformed) || tx.Verify.Malformed != (bad && !tc.malformed) {
					t.Fatalf("tx %d: entry %+v, ok %v", i, tx, ok)
				}
			}
		})
	}
}

func TestPacketLossStallsBlock(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 0, 3)
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	// Drop tx1 (index 2).
	for i, p := range packets {
		if i == 2 {
			continue
		}
		if err := f.recv.ProcessPacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if f.recv.PendingBlocks() != 1 {
		t.Errorf("pending = %d, want 1 (stalled block)", f.recv.PendingBlocks())
	}
	select {
	case <-f.recv.Blocks():
		t.Error("incomplete block was delivered")
	default:
	}
	// Late arrival completes the block.
	if err := f.recv.ProcessPacket(packets[2]); err != nil {
		t.Fatal(err)
	}
	ab := <-f.recv.Blocks()
	if !ab.DataHashOK || len(ab.Block.Envelopes) != 3 {
		t.Error("late completion failed")
	}
}

func TestCorruptSignatureYieldsFailingRequest(t *testing.T) {
	f := newFixture(t)
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator:          f.client,
		Chaincode:        "cc",
		Channel:          "ch1",
		Endorsers:        []*identity.Identity{f.e1},
		CorruptClientSig: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := block.NewBlock(0, nil, []block.Envelope{*env}, f.orderer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.sender.SendBlock(blk); err != nil {
		t.Fatal(err)
	}
	te, ok := f.bufs.Tx.TryPop()
	if !ok {
		t.Fatal("tx_fifo empty")
	}
	if te.Verify.Execute() {
		t.Error("corrupt client signature verified in hardware path")
	}
}

func TestNonBMacTrafficForwarded(t *testing.T) {
	f := newFixture(t)
	err := f.recv.ProcessPacket([]byte{0x01, 0x02, 0x03})
	if !errors.Is(err, ErrNotBMac) {
		t.Errorf("err = %v, want ErrNotBMac", err)
	}
	if f.recv.Stats().NonBMac != 1 {
		t.Error("non-BMac packet not counted")
	}
}

func TestUDPTransport(t *testing.T) {
	f := newFixture(t)
	// Fresh receiver over real UDP loopback.
	recvCache, err := f.net.Members()
	if err != nil {
		t.Fatal(err)
	}
	bufs := NewBuffers()
	recv := NewReceiver(recvCache, bufs)
	listener, err := ListenUDP("127.0.0.1:0", recv)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	sink, err := DialUDP(listener.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	sender := NewSender(identity.NewCache(), sink)
	if err := sender.RegisterNetwork(f.net); err != nil {
		t.Fatal(err)
	}
	blk := f.makeBlock(t, 0, 3)
	if _, err := sender.SendBlock(blk); err != nil {
		t.Fatal(err)
	}
	ab := <-recv.Blocks()
	if !ab.DataHashOK || len(ab.Block.Envelopes) != 3 {
		t.Errorf("UDP delivery: ok=%v envs=%d", ab.DataHashOK, len(ab.Block.Envelopes))
	}
}

func TestVerifyRequestMalformed(t *testing.T) {
	var req VerifyRequest
	req.Malformed = true
	if req.Execute() {
		t.Error("malformed request executed")
	}
	var nilPub VerifyRequest
	if nilPub.Execute() {
		t.Error("nil-pubkey request executed")
	}
}

func TestReceiverStats(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 0, 2)
	if _, err := f.sender.SendBlock(blk); err != nil {
		t.Fatal(err)
	}
	s := f.recv.Stats()
	if s.Blocks != 1 || s.Transactions != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.CacheSyncs == 0 {
		t.Error("cache syncs not counted")
	}
}

func TestSectionTypeStrings(t *testing.T) {
	if SectionHeader.String() != "header" || SectionTx.String() != "tx" ||
		SectionMetadata.String() != "metadata" || SectionCacheSync.String() != "cachesync" {
		t.Error("section type strings wrong")
	}
}

func BenchmarkEncodeBlock150(b *testing.B) {
	f := newFixture(b)
	blk := f.makeBlock(b, 1, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.sender.EncodeBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolProcessor measures the receiver's packet processing
// rate, the software analogue of the 11 Gbps / 996k tps hardware figure.
func BenchmarkProtocolProcessor(b *testing.B) {
	f := newFixture(b)
	blk := f.makeBlock(b, 0, 150)
	packets, stats, err := f.sender.EncodeBlock(blk)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(stats.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufs := NewBuffers()
		recv := NewReceiver(f.recvCache, bufs)
		go func() { // drain fifos
			for {
				if _, ok := bufs.Tx.Pop(); !ok {
					return
				}
			}
		}()
		go func() {
			for {
				if _, ok := bufs.Ends.Pop(); !ok {
					return
				}
			}
		}()
		go func() {
			for range recv.Blocks() {
			}
		}()
		for j, p := range packets {
			// Rewrite block numbers so each iteration is a fresh block.
			pkt, err := Decode(p)
			if err != nil {
				b.Fatal(err)
			}
			pkt.BlockNum = uint64(i)
			if err := recv.ProcessPacket(pkt.Encode()); err != nil {
				b.Fatalf("packet %d: %v", j, err)
			}
		}
		bufs.Close()
		recv.Close()
	}
}

// TestTamperedPayloadFailsDataHash corrupts one transaction section's
// payload in flight: the block still assembles, but the streamed data-hash
// check flags the mismatch, so the CPU side treats the block as invalid.
func TestTamperedPayloadFailsDataHash(t *testing.T) {
	f := newFixture(t)
	blk := f.makeBlock(t, 0, 3)
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of tx section 1 (packet index 2).
	pkt, err := Decode(packets[2])
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), pkt.Payload...)
	tampered[len(tampered)/2] ^= 0xff
	pkt.Payload = tampered
	packets[2] = pkt.Encode()

	for _, p := range packets {
		// Tampering may corrupt structure; receiver errors are acceptable,
		// delivery of a block with a wrong data hash is what we check.
		_ = f.recv.ProcessPacket(p)
	}
	select {
	case ab := <-f.recv.Blocks():
		if ab.DataHashOK {
			t.Error("tampered block passed the data hash check")
		}
	default:
		// Structural corruption stalled the block entirely — also safe.
		if f.recv.Stats().BadPackets == 0 && f.recv.PendingBlocks() == 0 {
			t.Error("tampered packet silently vanished")
		}
	}
}

func FuzzDecodePacket(f *testing.F) {
	fx := newFixture(f)
	blk := fx.makeBlock(f, 0, 1)
	packets, _, err := fx.sender.EncodeBlock(blk)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range packets {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Decode(data) // must never panic
		if err == nil {
			pkt.Encode()
		}
	})
}
