package orderer

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/raft"
)

var (
	scheduleSeeds = flag.Int("orderer.seeds", 25, "how many seeds TestRandomSchedule runs")
	scheduleSeed  = flag.Int64("orderer.seed", 0, "run TestRandomSchedule on this one seed (replay a failure)")
)

// TestRandomSchedule drives the cut policy through seeded random schedules —
// concurrent submitters sending bursts, a delivery hook that stalls, one
// follow in mid-run — and checks what must hold whatever the slicing: every
// envelope lands in exactly one block, each submitter's envelopes keep their
// order, and outside failover never more than one partial (idle-cut) batch
// is on its way out at a time. BatchTimeout is an hour, so the clock cuts
// nothing. A failure prints the seed; -orderer.seed replays it.
func TestRandomSchedule(t *testing.T) {
	f := newFixture(t)
	// One pool of signed envelopes serves every seed: signing is the slow
	// part, and an orderer only ever looks at an envelope's bytes.
	pool := make([]*block.Envelope, 96)
	ids := make(map[string]int, len(pool))
	for i := range pool {
		pool[i] = f.envelope(t)
		id, err := block.EnvelopeTxID(pool[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = i
	}
	first, n := int64(1), int64(*scheduleSeeds)
	if *scheduleSeed != 0 {
		first, n = *scheduleSeed, 1
	}
	for seed := first; seed < first+n; seed++ {
		if err := runSchedule(f, pool, ids, seed); err != nil {
			t.Fatalf("seed %d: %v (replay: go test ./internal/orderer -run TestRandomSchedule -orderer.seed=%d)",
				seed, err, seed)
		}
	}
}

func runSchedule(f *fixture, pool []*block.Envelope, ids map[string]int, seed int64) error {
	c := raft.NewCluster(1, 20*time.Millisecond) // a raft log of its own per seed
	defer c.Stop()
	leader := c.WaitForLeader(3 * time.Second)
	if leader == nil {
		return errors.New("raft leader never elected")
	}
	rng := rand.New(rand.NewSource(seed))
	batchSize := 2 + rng.Intn(7)
	submitters := 2 + rng.Intn(3)
	total := 24 + rng.Intn(len(pool)-24)
	stalls := make([]time.Duration, total) // per block number; at most total blocks
	for i := range stalls {
		if rng.Intn(3) == 0 {
			stalls[i] = time.Duration(rng.Intn(400)) * time.Microsecond
		}
	}

	o := New(Config{BatchSize: batchSize, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, leader)
	defer o.Stop()
	// partials counts the in-flight batches smaller than BatchSize: only an
	// idle cut makes one (a size cut takes at least BatchSize).
	partials := func() int {
		o.mu.Lock()
		batches := make([][]byte, 0, len(o.inflight))
		for _, data := range o.inflight {
			batches = append(batches, data)
		}
		o.mu.Unlock()
		n := 0
		for _, data := range batches {
			if envs, _, err := unmarshalBatch(data); err == nil && len(envs) < batchSize {
				n++
			}
		}
		return n
	}
	var (
		mu       sync.Mutex
		order    []int // pool indices in block order
		unknown  int
		overlaps int
	)
	check := func() {
		if partials() > 1 {
			mu.Lock()
			overlaps++
			mu.Unlock()
		}
	}
	done := make(chan struct{})
	o.OnDeliver(func(b *block.Block) error {
		check()
		time.Sleep(stalls[b.Header.Number])
		mu.Lock()
		for i := range b.Envelopes {
			id, err := block.EnvelopeTxID(&b.Envelopes[i])
			if idx, ok := ids[id]; err == nil && ok {
				order = append(order, idx)
			} else {
				unknown++
			}
		}
		if len(order)+unknown >= total {
			select {
			case <-done:
			default:
				close(done)
			}
		}
		mu.Unlock()
		return nil
	})

	// Submitter s sends pool[s], pool[s+submitters], ... in bursts.
	followAt := rng.Intn(total)
	var wg sync.WaitGroup
	errs := make(chan error, submitters+1)
	for s := 0; s < submitters; s++ {
		srng := rand.New(rand.NewSource(seed*31 + int64(s)))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			burst := 0
			for i := s; i < total; i += submitters {
				if burst == 0 {
					burst = 1 + srng.Intn(2*batchSize)
					time.Sleep(time.Duration(srng.Intn(300)) * time.Microsecond)
				}
				burst--
				if err := o.Submit(pool[i]); err != nil {
					errs <- fmt.Errorf("submit %d: %w", i, err)
					return
				}
				check()
				if i == followAt && !o.followNow() {
					errs <- errors.New("follow: the parked batches reached no leader")
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		got := len(order)
		mu.Unlock()
		return fmt.Errorf("%d/%d envelopes ordered after 10s (batch %d, %d submitters)", got, total, batchSize, submitters)
	}
	if err := o.Stop(); err != nil {
		return fmt.Errorf("orderer: %w", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if unknown != 0 {
		return fmt.Errorf("%d envelopes nobody submitted", unknown)
	}
	if overlaps != 0 {
		return fmt.Errorf("more than one partial batch in flight, seen %d times", overlaps)
	}
	seen := make([]int, total)
	last := make([]int, submitters)
	for s := range last {
		last[s] = -1
	}
	for _, idx := range order {
		seen[idx]++
		if s := idx % submitters; idx < last[s] {
			return fmt.Errorf("submitter %d: envelope %d ordered after %d", s, idx, last[s])
		} else {
			last[s] = idx
		}
	}
	for idx, n := range seen {
		if n != 1 {
			return fmt.Errorf("envelope %d ordered %d times (batch %d, %d submitters, %d blocks)",
				idx, n, batchSize, submitters, o.Height())
		}
	}
	return nil
}
