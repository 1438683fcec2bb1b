package peer

import (
	"bytes"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/core"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/statedb"
)

// TestBMacPeerPoisonedRelease holds the BMac peer's release point: every
// chunk of block memory the host hands back is overwritten at once, so a
// reader past Release — core's FIFO entries, the state database's keys and
// values, the ledger's envelopes — reads the pattern instead of the block.
// A chain with hot keys, stale reads and bad signatures, sent ahead of the
// host so that the receiver rebuilds later blocks into recycled chunks while
// earlier ones commit, must end with the software peer's flags, commit
// hashes, ledger envelopes and state.
func TestBMacPeerPoisonedRelease(t *testing.T) {
	var poisoned int
	bmacproto.ReleaseHook = func(chunk []byte) {
		for i := range chunk {
			chunk[i] = 0xa5
		}
		poisoned++
	}
	t.Cleanup(func() { bmacproto.ReleaseHook = nil })

	f := newChainFixture(t)
	blocks := f.chain(t, 12)
	sw, err := Open(fabric14(t, f.net, 2, f.pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	hw, err := NewBMacPeer(core.Config{
		TxValidators: 2,
		VSCCEngines:  2,
		Policies:     map[string]*policy.Circuit{"cc": policy.Compile(f.pols["cc"])},
	}, 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	sender := bmacproto.NewSender(identity.NewCache(), bmacproto.NewMemLink(hw.Receiver))
	if err := sender.RegisterNetwork(f.net); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		for _, b := range blocks {
			if _, err := sender.SendBlock(b); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	for _, b := range blocks {
		want, err := sw.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		var got CommitResult
		select {
		case got = <-hw.Results():
		case <-time.After(10 * time.Second):
			t.Fatalf("bmac peer: block %d never committed (err %v)", b.Header.Number, hw.Err())
		}
		if got.BlockNum != want.BlockNum || !block.FlagsEqual(got.Flags, want.Flags) || !bytes.Equal(got.CommitHash, want.CommitHash) {
			t.Fatalf("block %d: bmac flags %v, software %v; commit hashes equal %v",
				b.Header.Number, got.Flags, want.Flags, bytes.Equal(got.CommitHash, want.CommitHash))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		got, err := hw.Ledger.Get(b.Header.Number)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Envelopes {
			if !bytes.Equal(block.MarshalEnvelope(&got.Envelopes[i]), block.MarshalEnvelope(&b.Envelopes[i])) {
				t.Fatalf("block %d: the ledger holds envelope %d poisoned", b.Header.Number, i)
			}
		}
	}
	if err := hw.Close(); err != nil { // the commit loop has returned: poisoned is ours
		t.Fatal(err)
	}
	if poisoned == 0 {
		t.Fatal("no block memory was released")
	}
	if !statedb.SnapshotsEqual(sw.Engine.Store().Snapshot(), hw.Proc.DB().Snapshot()) {
		t.Fatal("state databases diverge")
	}
}
