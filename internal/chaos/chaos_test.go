package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/delivery"
	"bmac/internal/identity"
)

// sink is an in-memory transport/submitter capturing what reaches it.
type sink struct {
	sent []*delivery.Item
	envs []*block.Envelope
}

func (s *sink) Send(it *delivery.Item) (int, error) { s.sent = append(s.sent, it); return 1, nil }
func (s *sink) Close() error                        { return nil }
func (s *sink) Submit(env *block.Envelope) error    { s.envs = append(s.envs, env); return nil }

func TestSwitchSeverHeal(t *testing.T) {
	var sw Switch
	inner := &sink{}
	tr := Severable(inner, &sw)
	it := &delivery.Item{Seq: 1}
	if _, err := tr.Send(it); err != nil {
		t.Fatalf("send through healed switch: %v", err)
	}
	sw.Sever()
	if !sw.Severed() {
		t.Fatal("Severed() false after Sever")
	}
	if _, err := tr.Send(it); !errors.Is(err, ErrSevered) {
		t.Fatalf("send through severed switch: %v, want ErrSevered", err)
	}
	dial := SeverableDialer(func() (delivery.Transport, error) { return inner, nil }, &sw)
	if _, err := dial(); !errors.Is(err, ErrSevered) {
		t.Fatalf("dial through severed switch: %v, want ErrSevered", err)
	}
	sw.Heal()
	sw.Heal() // idempotent: second heal of a closed switch is not counted
	if sw.Heals() != 1 {
		t.Fatalf("Heals() = %d, want 1", sw.Heals())
	}
	if _, err := tr.Send(it); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if tr2, err := dial(); err != nil || tr2 == nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if len(inner.sent) != 2 {
		t.Fatalf("inner transport saw %d sends, want 2", len(inner.sent))
	}
}

// TestDiskFaultCadence pins the wrapper's contract: every Nth write is
// refused once and counted, the counters add up, and the device re-issues a
// refused write, so every written byte lands exactly once.
func TestDiskFaultCadence(t *testing.T) {
	for _, c := range []struct {
		every  int
		faults int64
	}{{3, 3}, {0, 0}} {
		d := &DiskFault{FailEvery: c.every}
		path := filepath.Join(t.TempDir(), "f")
		f, err := d.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i := byte(0); i < 9; i++ {
			rec := []byte{i, i, i}
			want = append(want, rec...)
			if n, err := f.Write(rec); n != len(rec) || err != nil {
				t.Fatalf("write %d: (%d, %v)", i, n, err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		writes, faults := d.Stats()
		if writes != 9 || faults != c.faults {
			t.Errorf("FailEvery=%d: Stats() = (%d, %d), want (9, %d)", c.every, writes, faults, c.faults)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("FailEvery=%d: file holds %v (%v), want each write once: %v", c.every, got, err, want)
		}
	}
}

// TestCorrupterCadenceAndAliasing exercises the real Send path over a
// pipe: with every=2 the first frame arrives intact and the second
// bit-flipped, and — the aliasing regression — the corruption happens in
// a private copy, never in the delivery item's shared marshaled bytes.
func TestCorrupterCadenceAndAliasing(t *testing.T) {
	idnet := identity.NewNetwork([]byte(t.Name()))
	if _, err := idnet.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	signer, err := idnet.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, nil, signer)
	if err != nil {
		t.Fatal(err)
	}
	it := &delivery.Item{Seq: 0, Block: b}
	before := append([]byte(nil), it.Marshaled()...)

	client, server := net.Pipe()
	defer server.Close() // bmaclint:allow errdiscard (test teardown)
	frames := make(chan []byte, 2)
	readErr := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			var lenBuf [4]byte
			if _, err := io.ReadFull(server, lenBuf[:]); err != nil {
				readErr <- err
				return
			}
			data := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(server, data); err != nil {
				readErr <- err
				return
			}
			frames <- data
		}
	}()

	c := NewCorrupter(2)
	tr := &corruptingTransport{c: c, conn: client, writeTimeout: time.Second}
	defer tr.Close() // bmaclint:allow errdiscard (test teardown)
	for i := 0; i < 2; i++ {
		if _, err := tr.Send(it); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	recv := func() []byte {
		select {
		case data := <-frames:
			return data
		case err := <-readErr:
			t.Fatalf("read: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("frame never arrived")
		}
		return nil
	}
	if first := recv(); !bytes.Equal(first, before) {
		t.Error("first frame (off-cadence) was corrupted")
	}
	if second := recv(); bytes.Equal(second, before) {
		t.Error("second frame (on-cadence) arrived intact")
	}
	if !bytes.Equal(before, it.Marshaled()) {
		t.Fatal("corruption mutated the shared marshaled bytes")
	}
	sent, flips := c.Stats()
	if sent != 2 || flips != 1 {
		t.Fatalf("Stats() = (%d, %d), want (2, 1)", sent, flips)
	}
}

func TestAdversaryRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-0.1, 0.95, 1.5} {
		if _, err := NewAdversary(AdversaryOptions{Rate: rate}, &sink{}); err == nil {
			t.Errorf("rate %.2f accepted", rate)
		}
	}
}

// TestAdversaryRateAndMix drives the wrapped submitter and checks the
// hostile fraction of total traffic lands on the configured rate, with
// every hostile kind represented once the replay corpus exists.
func TestAdversaryRateAndMix(t *testing.T) {
	ord := &sink{}
	adv, err := NewAdversary(AdversaryOptions{Rate: 0.5, Seed: 42, Channel: "ch"}, ord)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the replay corpus through the tap, as the cluster harness does.
	tap := adv.Tap(ord)
	honest := &block.Envelope{PayloadBytes: []byte("honest payload"), Signature: []byte("sig")}
	if err := tap.Submit(honest); err != nil {
		t.Fatal(err)
	}

	const honestN = 400
	sub := adv.Wrap(stubSubmitter{})
	for i := 0; i < honestN; i++ {
		if _, err := sub.SubmitTx(); err != nil {
			t.Fatal(err)
		}
	}
	st := adv.Stats()
	if st.Total() < honestN*9/10 || st.Total() > honestN*11/10 {
		t.Fatalf("rate 0.5 over %d honest txs injected %d hostile, want ~%d", honestN, st.Total(), honestN)
	}
	if st.Replay == 0 || st.BadSig == 0 || st.Garbage == 0 || st.Forged == 0 {
		t.Fatalf("mix has empty kinds: %v", st)
	}
	// 1 tap + all hostile envelopes reached the ordering service.
	if int64(len(ord.envs)) != st.Total()+1 {
		t.Fatalf("ordering service saw %d envelopes, want %d", len(ord.envs), st.Total()+1)
	}
}

type stubSubmitter struct{}

func (stubSubmitter) SubmitTx() (string, error) { return "tx", nil }

// TestAdversaryPoolsReuse pins the flood shape: hostile corpora are
// bounded at PoolSize, so sustained injection repeats envelopes, each of
// which a peer verifies again.
func TestAdversaryPoolsReuse(t *testing.T) {
	ord := &sink{}
	adv, err := NewAdversary(AdversaryOptions{Rate: 0.5, Seed: 7, PoolSize: 2}, ord)
	if err != nil {
		t.Fatal(err)
	}
	sub := adv.Wrap(stubSubmitter{})
	for i := 0; i < 200; i++ {
		if _, err := sub.SubmitTx(); err != nil {
			t.Fatal(err)
		}
	}
	distinct := make(map[*block.Envelope]bool)
	for _, env := range ord.envs {
		distinct[env] = true
	}
	// 3 pools (badsig, garbage, forged; nothing captured for replay) of 2.
	if len(distinct) > 6 {
		t.Fatalf("%d distinct hostile envelopes, want <= 6 (pooled reuse)", len(distinct))
	}
}
