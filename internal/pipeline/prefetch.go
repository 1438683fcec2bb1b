package pipeline

import (
	"sync"
	"sync/atomic"

	"bmac/internal/block"
)

// prefetcher is the engine's async read-set warm-up stage: as soon as a
// block's transactions are unmarshalled, every distinct read-set key is
// handed to a bounded worker pool that issues a read against the backing
// state database. Against a HybridKVS the read absorbs the cache miss (and
// its modeled host/PCIe latency) while the block is still in the vscc
// stage, so by the time mvcc runs the keys are hardware-resident — the
// software analogue of the paper's Figure 12c latency hiding, and the same
// trick as Octopus's pipeline prefetcher and classic parallel-I/O
// read-ahead.
//
// Warm-up reads are pure cache promotions: they never change a value or a
// version, so validation verdicts are bit-identical with prefetch on or off.
// The engine starts one only over a store that implements warmer.
type prefetcher struct {
	tasks  chan prefetchTask
	pool   sync.WaitGroup
	closed sync.Once

	keys atomic.Int64 // total warm-up reads issued
}

// prefetchTask is one key warm-up; done tracks its block's completion.
type prefetchTask struct {
	key  string
	done *sync.WaitGroup
}

// warmer is a backend with a fast tier: Warm pulls a key into it, booked
// apart from demand reads.
type warmer interface{ Warm(key string) }

// newPrefetcher starts a pool of `workers` warm-up readers over w.
func newPrefetcher(w warmer, workers int) *prefetcher {
	if workers < 1 {
		workers = 1
	}
	p := &prefetcher{tasks: make(chan prefetchTask, 1024)}
	for i := 0; i < workers; i++ {
		p.pool.Add(1)
		go func() {
			defer p.pool.Done()
			for t := range p.tasks {
				w.Warm(t.key)
				p.keys.Add(1)
				t.done.Done()
			}
		}()
	}
	return p
}

// start issues async warm-up reads for every distinct read-set key of one
// block and returns the block's completion tracker. Enqueueing applies
// backpressure (the task channel is bounded), never loss. The keys are lent
// from the frame (see lend): the engine holds the block until the tracker
// is done, and Warm copies a key before the cache keeps it.
func (p *prefetcher) start(rws []block.RWSet) *sync.WaitGroup {
	done := new(sync.WaitGroup)
	seen := make(map[string]struct{})
	for i := range rws {
		for _, r := range rws[i].Reads {
			if _, dup := seen[r.Key]; dup {
				continue
			}
			seen[r.Key] = struct{}{}
			done.Add(1)
			p.tasks <- prefetchTask{key: r.Key, done: done}
		}
	}
	return done
}

// close drains the pool; pending warm-ups complete first. Later calls are
// no-ops.
func (p *prefetcher) close() {
	p.closed.Do(func() {
		close(p.tasks)
		p.pool.Wait()
	})
}

// prefetched reports the total number of warm-up reads issued.
func (p *prefetcher) prefetched() int { return int(p.keys.Load()) }
