package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
	"bmac/internal/wire"
)

// garbageEnvelope is random bytes as a payload, signed by signer: an
// envelope no path can read a transaction from.
func garbageEnvelope(t testing.TB, rng *rand.Rand, signer *identity.Identity) block.Envelope {
	t.Helper()
	payload := make([]byte, 1+rng.Intn(300))
	rng.Read(payload)
	sig, err := signer.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	return block.Envelope{PayloadBytes: payload, Signature: sig}
}

// signatureHeaderInFront puts a second, well-formed signature header naming
// front ahead of env's payload and has signer sign the result. The struct
// decoders and block.TxView read a repeated field's last occurrence, so the
// creator is still env's.
func signatureHeaderInFront(t testing.TB, env block.Envelope, front, signer *identity.Identity) block.Envelope {
	t.Helper()
	hdr := wire.AppendBytes(nil, 1, front.Cert)                           // SignatureHeader.creator
	payload := append(wire.AppendBytes(nil, 2, hdr), env.PayloadBytes...) // Payload.signature_header
	sig, err := signer.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	return block.Envelope{PayloadBytes: payload, Signature: sig}
}

// allPathsFlags validates b on the pipelined engine at 1 and 4 workers and
// on the BMac path of r, checks that the three agree on flags, state and
// commit hash, and returns the flags. A send that has not returned in a
// minute has wedged the receiver.
func allPathsFlags(t *testing.T, r *rig, sws []*pipeline.Engine, b *block.Block) []byte {
	t.Helper()
	raw := block.Marshal(b)
	var flags []byte
	var commits [][]byte
	for i, sw := range sws {
		res, err := sw.ValidateAndCommit(raw)
		if err != nil {
			t.Fatalf("software path %d: %v", i, err)
		}
		if flags == nil {
			flags = res.Flags
		} else if !block.FlagsEqual(res.Flags, flags) {
			t.Fatalf("software paths disagree: %v vs %v", res.Flags, flags)
		}
		commits = append(commits, res.CommitHash)
	}
	sent := make(chan error, 1)
	go func() {
		_, err := r.sender.SendBlock(b)
		sent <- err
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("bmac path: %v (pending blocks %d)", err, r.recv.PendingBlocks())
		}
	case <-time.After(time.Minute): // the FIFOs close at cleanup, which ends the send
		t.Fatalf("bmac path: send wedged, ends_fifo holds %d of %d, tx_fifo %d", r.bufs.Ends.Len(), r.bufs.Ends.Cap(), r.bufs.Tx.Len())
	}
	hw, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no hw result")
	}
	if !block.FlagsEqual(hw.Flags, flags) {
		t.Fatalf("flags diverge:\n  sw %v\n  hw %v", flags, hw.Flags)
	}
	if ch := block.CommitHash(nil, b.Header.DataHash, hw.Flags); !bytes.Equal(ch, commits[0]) {
		t.Errorf("bmac commit hash %x, software %x", ch, commits[0])
	}
	for _, sw := range sws {
		if !statedb.SnapshotsEqual(sw.Store().Snapshot(), r.proc.DB().Snapshot()) {
			t.Fatal("state databases diverge")
		}
	}
	return flags
}

// newAllPaths is a 2of2 BMac rig and pipelined engines at 1 and 4 workers
// over the same network.
func newAllPaths(t *testing.T) (*rig, []*pipeline.Engine) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	var sws []*pipeline.Engine
	for _, workers := range []int{1, 4} {
		sw := pipeline.New(pipeline.Config{
			Workers:  workers,
			Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")},
			Members:  r.members,
		}, statedb.NewStore(), nil)
		t.Cleanup(sw.Close)
		sws = append(sws, sw)
	}
	return r, sws
}

// TestUndecodableEnvelopeAllPaths: an envelope whose payload does not
// decode, or whose signature is empty (wire.AppendBytes leaves the field
// out), invalidates only itself — BadPayload and BadSignature — on the
// software paths and on the BMac path alike. The BMac receiver used to
// return an error for such a section and never finish the block.
func TestUndecodableEnvelopeAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	r, sws := newAllPaths(t)
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	good := func(key string) block.Envelope {
		env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte("1")}}}))
		if err != nil {
			t.Fatal(err)
		}
		return *env
	}
	for num, tc := range []struct {
		name string
		bad  func() block.Envelope
		code block.ValidationCode
	}{
		{"garbage-payload", func() block.Envelope { return garbageEnvelope(t, rng, r.client) }, block.BadPayload},
		{"empty-signature", func() block.Envelope {
			env := good("unsigned")
			env.Signature = nil
			return env
		}, block.BadSignature},
	} {
		t.Run(tc.name, func(t *testing.T) {
			envs := []block.Envelope{good(tc.name + "/a"), good(tc.name + "/b"), tc.bad()}
			b, err := block.NewBlock(uint64(num), nil, envs, r.orderer)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte{byte(block.Valid), byte(block.Valid), byte(tc.code)}
			if got := allPathsFlags(t, r, sws, b); !block.FlagsEqual(got, want) {
				t.Errorf("flags %v, want %v", got, want)
			}
			if n := r.recv.PendingBlocks(); n != 0 {
				t.Errorf("%d blocks pending on the receiver", n)
			}
		})
	}
}

// TestRepeatedSignatureHeaderAllPaths: a payload with a second, well-formed
// signature header in front, naming an endorser, has the client as its
// creator on every path, since all of them read a repeated field's last
// occurrence. The BMac receiver used to take the first, the endorser, and
// flag the client's valid signature BadSignature.
func TestRepeatedSignatureHeaderAllPaths(t *testing.T) {
	r, sws := newAllPaths(t)
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	var envs []block.Envelope
	for _, key := range []string{"a", "b"} {
		env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte("1")}}}))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	envs[1] = signatureHeaderInFront(t, envs[1], r.peers[0], r.client)
	if v, err := block.NewTxView(envs[1].PayloadBytes); err != nil || !bytes.Equal(v.Creator(), r.client.Cert) {
		t.Fatalf("the view reads creator %x (err %v), want the client's", v.Creator(), err)
	}
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.Valid)}
	if got := allPathsFlags(t, r, sws, b); !block.FlagsEqual(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

// TestUnparsableCreatorAllPaths: a payload whose last signature header
// names a creator certificate that does not parse, signed by the client, is
// BadCreator on every path, as validator.VSCC flags it. The BMac receiver
// used to fold such a certificate into a malformed request, as it does a
// signature that does not decode, and block_validate flagged the
// transaction BadSignature.
func TestUnparsableCreatorAllPaths(t *testing.T) {
	r, sws := newAllPaths(t)
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	var envs []block.Envelope
	for _, key := range []string{"a", "b"} {
		env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte("1")}}}))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	hdr := wire.AppendBytes(nil, 1, []byte("not a certificate"))            // SignatureHeader.creator
	payload := wire.AppendBytes(slices.Clone(envs[1].PayloadBytes), 2, hdr) // Payload.signature_header, read last
	sig, err := r.client.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	envs[1] = block.Envelope{PayloadBytes: payload, Signature: sig}
	if v, err := block.NewTxView(payload); err != nil || string(v.Creator()) != "not a certificate" {
		t.Fatalf("the view reads creator %q (err %v)", v.Creator(), err)
	}
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.BadCreator)}
	if got := allPathsFlags(t, r, sws, b); !block.FlagsEqual(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

// TestManyEndorsementsAllPaths: a transaction with more endorsements than
// ends_fifo holds (4 096) used to wedge the BMac path for good, the
// receiver blocked on the full ends_fifo ahead of the tx entry that
// block_validate waited for. The receiver writes the tx entry first now,
// and every path flags the transaction's 4 097 unverifiable endorsements
// EndorsementPolicyFailure.
func TestManyEndorsementsAllPaths(t *testing.T) {
	r, sws := newAllPaths(t)
	ends := make([]block.Endorsement, r.bufs.Ends.Cap()+1)
	for i := range ends {
		ends[i] = block.Endorsement{Endorser: []byte{1}, Signature: []byte{1}}
	}
	endorsed, err := block.NewEndorsedEnvelope(r.spec(r.peers, block.RWSet{Writes: []block.KVWrite{{Key: "a", Value: []byte("1")}}}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := block.NewTxView(endorsed.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	env, err := block.NewEnvelopeFromResponses(block.AssembleSpec{
		Creator: r.client, Chaincode: "smallbank", Channel: "ch1", Nonce: []byte("nonce"),
		PRPBytes: v.ProposalResponseBytes(), Endorsers: ends,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.EndorsementPolicyFailure)}
	if got := allPathsFlags(t, r, sws, b); !block.FlagsEqual(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

// TestLyingPayloadPointerAllPaths: the BMac path's packets cross a link
// that aims every tx section's payload pointer at the envelope's
// signature, in range. The receiver reads no pointer back, so the BMac path
// gives the software paths' flags and commit hash. It used to take the
// signature bytes as the payload and flag every transaction BadPayload.
func TestLyingPayloadPointerAllPaths(t *testing.T) {
	r, sws := newAllPaths(t)
	link := bmacproto.NewMemLink(r.recv)
	lied := 0
	r.sender = bmacproto.NewSender(identity.NewCache(), bmacproto.SinkFunc(func(p []byte) error {
		pkt, err := bmacproto.Decode(p)
		if err != nil || pkt.Type != bmacproto.SectionTx {
			return link.SendPacket(p)
		}
		var sig bmacproto.Pointer
		for _, ptr := range pkt.Pointers {
			if ptr.Field == bmacproto.PtrEnvelopeSignature {
				sig = ptr
			}
		}
		for i := range pkt.Pointers {
			if ptr := &pkt.Pointers[i]; ptr.Field == bmacproto.PtrPayload {
				ptr.Offset, ptr.Length = sig.Offset, sig.Length
				lied++
			}
		}
		return link.SendPacket(pkt.Encode())
	}))
	if err := r.sender.RegisterNetwork(r.net); err != nil {
		t.Fatal(err)
	}
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	var envs []block.Envelope
	for _, key := range []string{"a", "b", "c"} {
		env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte("1")}}}))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.Valid), byte(block.Valid)}
	if got := allPathsFlags(t, r, sws, b); !block.FlagsEqual(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
	if lied != len(envs) {
		t.Fatalf("the link rewrote %d payload pointers, want %d", lied, len(envs))
	}
}
