package load

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
)

// fakeSubmitter hands out sequential tx ids.
type fakeSubmitter struct {
	mu    sync.Mutex
	n     int
	errAt int // fail the errAt-th submission (1-based; 0 = never)
}

func (f *fakeSubmitter) SubmitTx() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.errAt != 0 && f.n == f.errAt {
		return "", errors.New("submit failed")
	}
	return fmt.Sprintf("tx%d", f.n), nil
}

func TestRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Count: 10, Arrival: "bursty"}); err == nil {
		t.Error("unknown arrival accepted")
	}
	if _, err := New(Options{Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestUnpacedRunSubmitsAll(t *testing.T) {
	g, err := New(Options{Count: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submitter{&fakeSubmitter{}, &fakeSubmitter{}}
	if err := g.Run(subs); err != nil {
		t.Fatal(err)
	}
	submitted, committed, late := g.Stats()
	if submitted != 25 || committed != 0 {
		t.Errorf("submitted %d committed %d, want 25/0", submitted, committed)
	}
	if late != 0 {
		t.Errorf("late = %d; an unpaced run has no schedule to fall behind", late)
	}
}

// TestUnpacedArrivalIsSubmitTime: without a rate there is no schedule,
// so each transaction's arrival must be its own submit time, not the run
// start (which would inflate every latency by the whole preceding run).
// The record's call window starts there too and spans the SubmitTx call.
func TestUnpacedArrivalIsSubmitTime(t *testing.T) {
	g, err := New(Options{Count: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowSubmitter{delay: 10 * time.Millisecond}
	if err := g.Run([]Submitter{slow}); err != nil {
		t.Fatal(err)
	}
	s1, ok1 := g.SubmitRecord("tx1")
	s3, ok3 := g.SubmitRecord("tx3")
	if !ok1 || !ok3 {
		t.Fatal("submit times missing")
	}
	if gap := s3.Scheduled.Sub(s1.Scheduled); gap < 15*time.Millisecond {
		t.Errorf("tx1..tx3 arrival gap = %v; arrivals are stuck at run start", gap)
	}
	// The record also brackets the SubmitTx call itself.
	if !s1.Start.Equal(s1.Scheduled) || s1.End.Sub(s1.Start) < slow.delay {
		t.Errorf("tx1 record %+v: want Start == Scheduled and a call window >= %v", s1, slow.delay)
	}
}

type slowSubmitter struct {
	fakeSubmitter
	delay time.Duration
}

func (s *slowSubmitter) SubmitTx() (string, error) {
	time.Sleep(s.delay)
	return s.fakeSubmitter.SubmitTx()
}

func TestPacedRunTakesRateTime(t *testing.T) {
	// 20 txs at 500 tx/s uniform = 40ms of scheduled arrivals.
	g, err := New(Options{Count: 20, Rate: 500, Arrival: Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Run([]Submitter{&fakeSubmitter{}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("open-loop run finished in %v, pacing not applied", elapsed)
	}
}

func TestSubmitErrorReported(t *testing.T) {
	g, err := New(Options{Count: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run([]Submitter{&fakeSubmitter{errAt: 3}}); err == nil {
		t.Error("submission error swallowed")
	}
}

func TestLatencyAccounting(t *testing.T) {
	g, err := New(Options{Count: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run([]Submitter{&fakeSubmitter{}}); err != nil {
		t.Fatal(err)
	}
	at := time.Now().Add(10 * time.Millisecond)
	if !g.Committed("tx1", at) {
		t.Error("known txid rejected")
	}
	if g.Committed("tx1", at) {
		t.Error("double commit recorded twice")
	}
	if g.Committed("unknown", at) {
		t.Error("foreign txid accepted")
	}
	if _, ok := g.SubmitRecord("tx1"); !ok {
		t.Error("SubmitRecord consumed by Committed")
	}
	_, committed, _ := g.Stats()
	if committed != 1 {
		t.Errorf("committed = %d, want 1", committed)
	}
	if sum := g.Latency(); sum.Count != 1 || sum.P50 <= 0 {
		t.Errorf("latency summary %+v", sum)
	}
}

// TestConcurrentCommitLatency is the -race regression for the cluster's
// usage pattern: commit observers record latencies, some before their
// submission record lands, while a reporter reads Latency.
func TestConcurrentCommitLatency(t *testing.T) {
	const n, observers = 2000, 4
	g, err := New(Options{Count: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var work, reader sync.WaitGroup
	stop := make(chan struct{})
	work.Add(1 + observers)
	go func() {
		defer work.Done()
		if err := g.Run([]Submitter{&fakeSubmitter{}}); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < observers; i++ {
		go func(i int) {
			defer work.Done()
			for j := 1; j <= n/observers; j++ {
				g.Committed(fmt.Sprintf("tx%d", i*n/observers+j), time.Now())
			}
		}(i)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sum := g.Latency(); sum.Count > 0 && (sum.P50 > sum.P99 || sum.P99 > sum.Max) {
				t.Errorf("inconsistent summary under concurrency: %+v", sum)
				return
			}
		}
	}()
	work.Wait()
	close(stop)
	reader.Wait()
	if _, committed, _ := g.Stats(); committed != n {
		t.Errorf("committed = %d, want %d", committed, n)
	}
	if sum := g.Latency(); sum.Count != n {
		t.Errorf("latency count = %d, want %d", sum.Count, n)
	}
}

// TestEarlyCommitCompleted: a commit observed before the submitting
// goroutine records the tx (a synchronous commit path racing SubmitTx's
// return) must still produce a latency sample once the record lands.
func TestEarlyCommitCompleted(t *testing.T) {
	g, err := New(Options{Count: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if g.Committed("tx1", at) {
		t.Error("early commit claimed a match before the record existed")
	}
	if err := g.Run([]Submitter{&fakeSubmitter{}}); err != nil {
		t.Fatal(err)
	}
	_, committed, _ := g.Stats()
	if committed != 1 {
		t.Fatalf("committed = %d, want the early observation completed", committed)
	}
	if g.Committed("tx1", at.Add(time.Second)) {
		t.Error("completed early commit recorded twice")
	}
	if sum := g.Latency(); sum.Count != 1 {
		t.Errorf("latency count = %d, want 1", sum.Count)
	}
}

// TestObserveBlock matches a real endorsed envelope back to its
// submission via the tx id in the channel header.
func TestObserveBlock(t *testing.T) {
	n := identity.NewNetwork([]byte(t.Name()))
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	clientID, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	ordererID, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: clientID, Chaincode: "cc", Channel: "ch",
	})
	if err != nil {
		t.Fatal(err)
	}
	txid, err := block.EnvelopeTxID(env)
	if err != nil || txid == "" {
		t.Fatalf("EnvelopeTxID = %q, %v", txid, err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, ordererID)
	if err != nil {
		t.Fatal(err)
	}

	g, err := New(Options{Count: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// White-box: plant the submission record the driver would have made.
	g.submitAt[txid] = Submission{Scheduled: time.Now().Add(-5 * time.Millisecond)}
	if got := g.ObserveBlock(b, time.Now()); got != 1 {
		t.Fatalf("ObserveBlock matched %d, want 1", got)
	}
	if sum := g.Latency(); sum.Count != 1 {
		t.Errorf("latency count = %d", sum.Count)
	}
}
