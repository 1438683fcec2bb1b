package core

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/asn1"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// rig wires the full hardware path: sender -> memlink -> receiver ->
// processor, plus a software validator over the same policy for
// equivalence checks.
type rig struct {
	net     *identity.Network
	members *identity.Cache // net's consortium, for the software validator
	client  *identity.Identity
	orderer *identity.Identity
	peers   []*identity.Identity

	bufs   *bmacproto.Buffers
	recv   *bmacproto.Receiver
	sender *bmacproto.Sender
	proc   *Processor
}

func newRig(t testing.TB, orgs int, pol string, cfg Config) *rig {
	t.Helper()
	r := newWire(t, orgs)
	if cfg.Policies == nil {
		cfg.Policies = map[string]*policy.Circuit{
			"smallbank": policy.Compile(policytest.MustParse(pol)),
		}
	}
	r.proc = New(cfg, r.bufs, statedb.NewHardwareKVS(8192))
	r.proc.Start()
	t.Cleanup(func() {
		r.bufs.Close()
		r.proc.Wait()
	})
	return r
}

// newWire is a rig without a processor: what the sender sends stays in the
// FIFOs for the test to take out.
func newWire(t testing.TB, orgs int) *rig {
	t.Helper()
	n := identity.NewNetwork([]byte(t.Name()))
	r := &rig{net: n}
	for i := 1; i <= orgs; i++ {
		org := "Org" + string(rune('0'+i))
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
		p, err := n.NewIdentity(org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		r.peers = append(r.peers, p)
	}
	var err error
	r.client, err = n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	r.orderer, err = n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	if r.members, err = n.Members(); err != nil {
		t.Fatal(err)
	}

	recvCache := identity.NewCache()
	r.bufs = bmacproto.NewBuffers()
	r.recv = bmacproto.NewReceiver(recvCache, r.bufs)
	link := bmacproto.NewMemLink(r.recv)
	r.sender = bmacproto.NewSender(identity.NewCache(), link)
	if err := r.sender.RegisterNetwork(n); err != nil {
		t.Fatal(err)
	}

	// Drain assembled blocks so the receiver never blocks.
	go func() {
		for range r.recv.Blocks() {
		}
	}()
	return r
}

func (r *rig) block(t testing.TB, num uint64, specs []block.TxSpec) *block.Block {
	t.Helper()
	envs := make([]block.Envelope, 0, len(specs))
	for i := range specs {
		env, err := block.NewEndorsedEnvelope(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(num, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (r *rig) spec(endorsers []*identity.Identity, rw block.RWSet) block.TxSpec {
	return block.TxSpec{
		Creator:   r.client,
		Chaincode: "smallbank",
		Channel:   "ch1",
		RWSet:     rw,
		Endorsers: endorsers,
	}
}

func TestAllValidBlock(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 4, VSCCEngines: 2})
	specs := make([]block.TxSpec, 6)
	for i := range specs {
		specs[i] = r.spec([]*identity.Identity{r.peers[0], r.peers[1]},
			block.RWSet{Writes: []block.KVWrite{{Key: "k" + string(rune('a'+i)), Value: []byte{1}}}})
	}
	b := r.block(t, 0, specs)
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no result")
	}
	if !res.BlockValid {
		t.Error("block invalid")
	}
	for i, fl := range res.Flags {
		if block.ValidationCode(fl) != block.Valid {
			t.Errorf("tx %d = %v", i, block.ValidationCode(fl))
		}
	}
	if r.proc.DB().Len() != 6 {
		t.Errorf("hw db keys = %d, want 6", r.proc.DB().Len())
	}
	if res.Stats.TxCount != 6 {
		t.Errorf("stats tx count = %d", res.Stats.TxCount)
	}
}

func TestShortCircuitSkipsEndorsements(t *testing.T) {
	// 2of3 policy with 3 endorsements and 2 engines: the first batch of 2
	// valid endorsements satisfies the policy; the third must be skipped.
	r := newRig(t, 3, "2of3", Config{TxValidators: 1, VSCCEngines: 2})
	specs := []block.TxSpec{
		r.spec([]*identity.Identity{r.peers[0], r.peers[1], r.peers[2]}, block.RWSet{}),
	}
	b := r.block(t, 0, specs)
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no result")
	}
	if block.ValidationCode(res.Flags[0]) != block.Valid {
		t.Fatalf("flag = %v", block.ValidationCode(res.Flags[0]))
	}
	if res.Stats.EndsVerified != 2 {
		t.Errorf("ends verified = %d, want 2 (short-circuit)", res.Stats.EndsVerified)
	}
	if res.Stats.EndsSkipped != 1 {
		t.Errorf("ends skipped = %d, want 1", res.Stats.EndsSkipped)
	}
}

func TestShortCircuitDisabledVerifiesAll(t *testing.T) {
	r := newRig(t, 3, "2of3", Config{TxValidators: 1, VSCCEngines: 2, DisableShortCircuit: true})
	specs := []block.TxSpec{
		r.spec([]*identity.Identity{r.peers[0], r.peers[1], r.peers[2]}, block.RWSet{}),
	}
	b := r.block(t, 0, specs)
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if res.Stats.EndsVerified != 3 {
		t.Errorf("ends verified = %d, want 3 (ablation)", res.Stats.EndsVerified)
	}
}

func TestInvalidityShortCircuit(t *testing.T) {
	// 3of3 with the first endorsement corrupt: after batch 1 (engines=1),
	// the policy can never be satisfied; endorsements 2,3 are skipped.
	r := newRig(t, 3, "3of3", Config{TxValidators: 1, VSCCEngines: 1})
	spec := r.spec([]*identity.Identity{r.peers[0], r.peers[1], r.peers[2]}, block.RWSet{})
	spec.CorruptEndorsementIdx = 1
	b := r.block(t, 0, []block.TxSpec{spec})
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if block.ValidationCode(res.Flags[0]) != block.EndorsementPolicyFailure {
		t.Errorf("flag = %v", block.ValidationCode(res.Flags[0]))
	}
	if res.Stats.EndsVerified != 1 {
		t.Errorf("ends verified = %d, want 1 (invalidity short-circuit)", res.Stats.EndsVerified)
	}
}

func TestEarlyAbortOnBadClientSig(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	spec := r.spec([]*identity.Identity{r.peers[0], r.peers[1]}, block.RWSet{})
	spec.CorruptClientSig = true
	b := r.block(t, 0, []block.TxSpec{spec})
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if block.ValidationCode(res.Flags[0]) != block.BadSignature {
		t.Errorf("flag = %v", block.ValidationCode(res.Flags[0]))
	}
	if res.Stats.EndsVerified != 0 || res.Stats.EndsSkipped != 2 {
		t.Errorf("ends = %d verified / %d skipped, want 0/2 (early abort)",
			res.Stats.EndsVerified, res.Stats.EndsSkipped)
	}
}

func TestBadOrdererSignatureInvalidatesAll(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	b := r.block(t, 0, []block.TxSpec{
		r.spec([]*identity.Identity{r.peers[0], r.peers[1]}, block.RWSet{}),
		r.spec([]*identity.Identity{r.peers[0], r.peers[1]}, block.RWSet{}),
	})
	b.Metadata.Signature.Signature[8] ^= 0xff
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if res.BlockValid {
		t.Error("block reported valid")
	}
	for i, fl := range res.Flags {
		if block.ValidationCode(fl) == block.Valid {
			t.Errorf("tx %d valid under invalid block", i)
		}
	}
	if res.Stats.EndsVerified != 0 {
		t.Errorf("ends verified = %d under invalid block (early abort)", res.Stats.EndsVerified)
	}
	if r.proc.DB().Len() != 0 {
		t.Error("invalid block committed to hw db")
	}
}

func TestMVCCConflictInHardware(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 4, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	b := r.block(t, 0, []block.TxSpec{
		r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: "hot", Value: []byte("1")}}}),
		r.spec(ends, block.RWSet{
			Reads:  []block.KVRead{{Key: "hot", Version: block.Version{}}},
			Writes: []block.KVWrite{{Key: "x", Value: []byte("2")}},
		}),
	})
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if block.ValidationCode(res.Flags[0]) != block.Valid {
		t.Errorf("tx0 = %v", block.ValidationCode(res.Flags[0]))
	}
	if block.ValidationCode(res.Flags[1]) != block.MVCCReadConflict {
		t.Errorf("tx1 = %v, want mvcc conflict", block.ValidationCode(res.Flags[1]))
	}
	if _, ok := r.proc.DB().Read("x"); ok {
		t.Error("conflicted write committed")
	}
}

func TestPipelinedBlocks(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	for num := uint64(0); num < 4; num++ {
		b := r.block(t, num, []block.TxSpec{
			r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: []byte{byte(num)}}}}),
		})
		if _, err := r.sender.SendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for num := uint64(0); num < 4; num++ {
		res, ok := r.proc.GetBlockData()
		if !ok {
			t.Fatalf("no result for block %d", num)
		}
		if res.BlockNum != num {
			t.Errorf("result order: got block %d, want %d", res.BlockNum, num)
		}
	}
	// Final state: k has the last block's version.
	v, ok := r.proc.DB().Read("k")
	if !ok || v.Version.BlockNum != 3 {
		t.Errorf("final version = %+v", v.Version)
	}
}

// TestSoftwareHardwareEquivalence is the paper's §4.1 cross-check: the same
// blocks flow through the software validator and the BMac pipeline, and the
// transaction flags and resulting state must match exactly.
func TestSoftwareHardwareEquivalence(t *testing.T) {
	r := newRig(t, 3, "2of3", Config{TxValidators: 4, VSCCEngines: 2})
	swLed, err := ledger.Open(t.TempDir(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer swLed.Close()
	sw := pipeline.New(pipeline.Config{
		Workers:  4,
		Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of3")},
		Members:  r.members,
	}, statedb.NewStore(), swLed)

	ends3 := []*identity.Identity{r.peers[0], r.peers[1], r.peers[2]}
	mk := func(i int, corruptClient bool, corruptEnd int, rw block.RWSet) block.TxSpec {
		s := r.spec(ends3, rw)
		s.CorruptClientSig = corruptClient
		s.CorruptEndorsementIdx = corruptEnd
		return s
	}
	specs := []block.TxSpec{
		mk(0, false, 0, block.RWSet{Writes: []block.KVWrite{{Key: "a", Value: []byte("1")}}}),
		mk(1, true, 0, block.RWSet{Writes: []block.KVWrite{{Key: "b", Value: []byte("2")}}}),
		mk(2, false, 1, block.RWSet{Writes: []block.KVWrite{{Key: "c", Value: []byte("3")}}}), // 1 bad end, 2of3 still OK
		mk(3, false, 0, block.RWSet{
			Reads:  []block.KVRead{{Key: "a", Version: block.Version{}}},
			Writes: []block.KVWrite{{Key: "d", Value: []byte("4")}},
		}), // mvcc conflict with tx0
		mk(4, false, 0, block.RWSet{Writes: []block.KVWrite{{Key: "e", Value: []byte("5")}}}),
	}
	b := r.block(t, 0, specs)
	raw := block.Marshal(b)

	swRes, err := sw.ValidateAndCommit(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	hwRes, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no hw result")
	}

	if !block.FlagsEqual(swRes.Flags, hwRes.Flags) {
		t.Errorf("flags diverge:\n  sw: %v\n  hw: %v", swRes.Flags, hwRes.Flags)
	}
	if !statedb.SnapshotsEqual(sw.Store().Snapshot(), r.proc.DB().Snapshot()) {
		t.Error("state databases diverge")
	}
	// Same flags + same data hash => same commit hash chain value.
	swCH := block.CommitHash(nil, b.Header.DataHash, swRes.Flags)
	hwCH := block.CommitHash(nil, b.Header.DataHash, hwRes.Flags)
	if string(swCH) != string(hwCH) {
		t.Error("commit hashes diverge")
	}
}

func TestArchitectureString(t *testing.T) {
	c := Config{TxValidators: 8, VSCCEngines: 2}
	if c.String() != "8x2" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestRegMapBackpressure(t *testing.T) {
	rm := NewRegMap()
	done := make(chan struct{})
	go func() {
		rm.write(Result{BlockNum: 1})
		rm.write(Result{BlockNum: 2}) // blocks until first read
		close(done)
	}()
	res, ok := rm.Read()
	if !ok || res.BlockNum != 1 {
		t.Fatalf("first read = %+v, %v", res, ok)
	}
	res, ok = rm.Read()
	if !ok || res.BlockNum != 2 {
		t.Fatalf("second read = %+v, %v", res, ok)
	}
	<-done
	rm.Close()
	if _, ok := rm.Read(); ok {
		t.Error("read after close")
	}
}

// TestUpdatePoliciesAtBlockBoundary exercises the §5 partial
// reconfiguration path: a chaincode without an installed policy is
// invalid; after UpdatePolicies, the next block validates.
func TestUpdatePoliciesAtBlockBoundary(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}

	newCC := func(num uint64) *block.Block {
		spec := r.spec(ends, block.RWSet{})
		spec.Chaincode = "newcc"
		return r.block(t, num, []block.TxSpec{spec})
	}

	if _, err := r.sender.SendBlock(newCC(0)); err != nil {
		t.Fatal(err)
	}
	res, _ := r.proc.GetBlockData()
	if block.ValidationCode(res.Flags[0]) != block.InvalidOther {
		t.Fatalf("before reconfiguration: flag = %v, want InvalidOther",
			block.ValidationCode(res.Flags[0]))
	}

	// Regenerate the ends_policy_evaluator with the new chaincode.
	r.proc.UpdatePolicies(map[string]*policy.Circuit{
		"smallbank": policy.Compile(policytest.MustParse("2of2")),
		"newcc":     policy.Compile(policytest.MustParse("2of2")),
	})
	if _, err := r.sender.SendBlock(newCC(1)); err != nil {
		t.Fatal(err)
	}
	res, _ = r.proc.GetBlockData()
	if block.ValidationCode(res.Flags[0]) != block.Valid {
		t.Errorf("after reconfiguration: flag = %v, want Valid",
			block.ValidationCode(res.Flags[0]))
	}
}

// TestOversizeSignatureComponentAllPaths: a client signature that is
// well-formed DER but carries a 300-bit r must be BadSignature on the
// sequential shape, the pipelined shape and the BMac path alike, with one
// commit hash. The protocol_processor's DER post-processor used to panic on
// it (big.Int.FillBytes into 32 bytes) while the software path rejected it.
func TestOversizeSignatureComponentAllPaths(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	var envs []block.Envelope
	for _, key := range []string{"a", "b", "c"} {
		env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: key, Value: []byte("1")}}}))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	wide, err := asn1.Marshal(struct{ R, S *big.Int }{new(big.Int).Lsh(big.NewInt(1), 299), big.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	envs[1].Signature = wide
	b, err := block.NewBlock(0, nil, envs, r.orderer)
	if err != nil {
		t.Fatal(err)
	}
	raw := block.Marshal(b)
	want := []byte{byte(block.Valid), byte(block.BadSignature), byte(block.Valid)}

	var commits [][]byte
	for _, workers := range []int{1, 4} {
		eng := pipeline.New(pipeline.Config{
			Workers:  workers,
			Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")},
			Members:  r.members,
		}, statedb.NewStore(), nil)
		res, err := eng.ValidateAndCommit(raw)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !block.FlagsEqual(res.Flags, want) {
			t.Errorf("%d workers: flags %v, want %v", workers, res.Flags, want)
		}
		commits = append(commits, res.CommitHash)
	}
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	hw, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no hw result")
	}
	if !block.FlagsEqual(hw.Flags, want) {
		t.Errorf("bmac: flags %v, want %v", hw.Flags, want)
	}
	commits = append(commits, block.CommitHash(nil, b.Header.DataHash, hw.Flags))
	for i, c := range commits[1:] {
		if !bytes.Equal(c, commits[0]) {
			t.Errorf("commit hash of path %d differs: %x vs %x", i+1, c, commits[0])
		}
	}
}

// extraDERElement returns sig, a DER signature, as SEQUENCE { r, s, INTEGER 0 }.
func extraDERElement(sig []byte) []byte {
	out := append([]byte{0x30, sig[1] + 3}, sig[2:]...)
	return append(out, 0x02, 0x01, 0x00)
}

// TestExtraDERElementAllPaths: a valid (r, s) followed by a third element
// inside its SEQUENCE is not strict DER, and crypto/ecdsa.VerifyASN1 rejects
// it. encoding/asn1, which ignores trailing struct elements, used to accept
// it on every path. On a client signature it is BadSignature, on one
// endorsement of a 2of2 transaction EndorsementPolicyFailure — at 1 and 4
// workers and on the BMac path alike, with one commit hash per block.
func TestExtraDERElementAllPaths(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	var blocks []*block.Block
	for num, key := range []string{"a", "b"} {
		var envs []block.Envelope
		for i := 0; i < 3; i++ {
			env, err := block.NewEndorsedEnvelope(r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: fmt.Sprint(key, i), Value: []byte("1")}}}))
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, *env)
		}
		pub, digest, sig := r.client.PublicKey(), fabcrypto.Hash(envs[1].PayloadBytes), envs[1].Signature
		if num == 0 {
			envs[1].Signature = extraDERElement(sig)
		} else { // on an endorsement, inside an envelope the client signs anew
			tx, err := block.UnmarshalTransactionPayload(envs[1].PayloadBytes)
			if err != nil {
				t.Fatal(err)
			}
			e := slices.Clone(tx.Payload.Action.Endorsements)
			pub, digest, sig = r.peers[0].PublicKey(), block.EndorsementDigest(tx.Payload.Action.ProposalResponseBytes, e[0].Endorser), e[0].Signature
			e[0].Signature = extraDERElement(sig)
			env, err := block.NewEnvelopeFromResponses(block.AssembleSpec{
				Creator: r.client, Chaincode: "smallbank", Channel: "ch1", Nonce: tx.SignatureHeader.Nonce,
				PRPBytes: tx.Payload.Action.ProposalResponseBytes, Endorsers: e,
			})
			if err != nil {
				t.Fatal(err)
			}
			envs[1] = *env
		}
		if !ecdsa.VerifyASN1(pub, digest[:], sig) || ecdsa.VerifyASN1(pub, digest[:], extraDERElement(sig)) {
			t.Fatalf("block %d: crypto/ecdsa does not tell the two encodings apart", num)
		}
		b, err := block.NewBlock(uint64(num), nil, envs, r.orderer)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	wants := [][]byte{
		{byte(block.Valid), byte(block.BadSignature), byte(block.Valid)},
		{byte(block.Valid), byte(block.EndorsementPolicyFailure), byte(block.Valid)},
	}

	commits := make([][][]byte, len(blocks))
	for _, workers := range []int{1, 4} {
		eng := pipeline.New(pipeline.Config{
			Workers:  workers,
			Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")},
			Members:  r.members,
		}, statedb.NewStore(), nil)
		for n, b := range blocks {
			res, err := eng.ValidateAndCommit(block.Marshal(b))
			if err != nil {
				t.Fatal(err)
			}
			if !block.FlagsEqual(res.Flags, wants[n]) {
				t.Errorf("%d workers, block %d: flags %v, want %v", workers, n, res.Flags, wants[n])
			}
			commits[n] = append(commits[n], res.CommitHash)
		}
		eng.Close()
	}
	for n, b := range blocks {
		if _, err := r.sender.SendBlock(b); err != nil {
			t.Fatal(err)
		}
		hw, ok := r.proc.GetBlockData()
		if !ok {
			t.Fatal("no hw result")
		}
		if !block.FlagsEqual(hw.Flags, wants[n]) {
			t.Errorf("bmac, block %d: flags %v, want %v", n, hw.Flags, wants[n])
		}
		commits[n] = append(commits[n], block.CommitHash(nil, b.Header.DataHash, hw.Flags))
		for i, c := range commits[n][1:] {
			if !bytes.Equal(c, commits[n][0]) {
				t.Errorf("block %d: commit hash of path %d differs: %x vs %x", n, i+1, c, commits[n][0])
			}
		}
	}
}

// TestCertificateInWriteValueAllPaths pins the one place the structural
// sender differs from the substring sweep it replaced: a registered
// certificate stored as a chaincode value is data, not an identity field,
// and stays inline. The four identity fields are still stripped, the
// receiver reconstructs the envelope exactly (the client signature covers
// the value and verifies), and the three paths agree on flags and commit
// hash.
func TestCertificateInWriteValueAllPaths(t *testing.T) {
	r := newRig(t, 2, "2of2", Config{TxValidators: 2, VSCCEngines: 2})
	ends := []*identity.Identity{r.peers[0], r.peers[1]}
	stored := r.peers[1].Cert
	b := r.block(t, 0, []block.TxSpec{
		r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: "a", Value: []byte("1")}}}),
		r.spec(ends, block.RWSet{Writes: []block.KVWrite{{Key: "cert/peer1", Value: stored}}}),
	})
	raw := block.Marshal(b)
	want := []byte{byte(block.Valid), byte(block.Valid)}

	packets, _, err := r.sender.EncodeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := bmacproto.Decode(packets[2]) // header, tx0, tx1
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Locators) != 4 { // creator, action-header creator, two endorsers
		t.Errorf("tx1 has %d locators, want 4", len(pkt.Locators))
	}
	if bytes.Count(pkt.Payload, stored) != 1 {
		t.Errorf("the stored certificate occurs %d times in the stripped section, want once (inline in the write set)", bytes.Count(pkt.Payload, stored))
	}

	var commits [][]byte
	for _, workers := range []int{1, 4} {
		eng := pipeline.New(pipeline.Config{
			Workers:  workers,
			Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")},
			Members:  r.members,
		}, statedb.NewStore(), nil)
		res, err := eng.ValidateAndCommit(raw)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !block.FlagsEqual(res.Flags, want) {
			t.Errorf("%d workers: flags %v, want %v", workers, res.Flags, want)
		}
		commits = append(commits, res.CommitHash)
	}
	if _, err := r.sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}
	hw, ok := r.proc.GetBlockData()
	if !ok {
		t.Fatal("no hw result")
	}
	if !block.FlagsEqual(hw.Flags, want) {
		t.Errorf("bmac: flags %v, want %v", hw.Flags, want)
	}
	commits = append(commits, block.CommitHash(nil, b.Header.DataHash, hw.Flags))
	for i, c := range commits[1:] {
		if !bytes.Equal(c, commits[0]) {
			t.Errorf("commit hash of path %d differs: %x vs %x", i+1, c, commits[0])
		}
	}
	if got, ok := r.proc.DB().Snapshot()["cert/peer1"]; !ok || !bytes.Equal(got.Value, stored) {
		t.Error("hardware state does not hold the stored certificate")
	}
}
