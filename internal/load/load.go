// Package load implements an open-loop cluster load driver: transaction
// arrivals follow a configured rate and inter-arrival distribution
// (Poisson or uniform) independent of how fast the system responds, the
// way Caliper drives a Fabric network at a fixed send rate. Because
// arrival times are scheduled up front, a backlogged system cannot slow
// the arrival process down, and latency is measured from the scheduled
// arrival — the measurement is free of coordinated omission.
package load

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/telemetry"
)

// Submitter submits one generated transaction and returns its ID;
// *client.Driver implements it.
type Submitter interface {
	SubmitTx() (string, error)
}

// Arrival distributions.
const (
	// Poisson draws exponential inter-arrival times (memoryless open-loop
	// traffic, the default).
	Poisson = "poisson"
	// Uniform uses a constant inter-arrival interval of 1/rate.
	Uniform = "uniform"
)

// Options parameterize a run.
type Options struct {
	// Rate is the aggregate arrival rate in tx/s across all clients;
	// <= 0 submits with no pacing (back-to-back).
	Rate float64
	// Arrival is the inter-arrival distribution: Poisson (default) or
	// Uniform.
	Arrival string
	// Count is the total number of transactions to submit.
	Count int
	// Seed makes the arrival process deterministic.
	Seed int64
	// E2E, when non-nil, also receives every end-to-end latency sample
	// (the registry's load_e2e_seconds). The submit/commit/late counts are
	// Stats; a registry reads them at scrape time. Nil: telemetry off.
	E2E *telemetry.Histogram
}

// Submission is one transaction's submit record: the scheduled arrival
// that its end-to-end latency is measured from, and the wall-clock window
// of its SubmitTx call.
type Submission struct {
	Scheduled, Start, End time.Time
}

// Generator drives submitters open-loop and tracks per-transaction
// end-to-end latency from scheduled arrival to commit.
type Generator struct {
	opts Options

	mu        sync.Mutex
	submitAt  map[string]Submission // guarded by mu
	done      map[string]bool       // guarded by mu
	early     map[string]time.Time  // guarded by mu; commits observed before the submit record landed
	latencies []time.Duration       // guarded by mu
	submitted int                   // guarded by mu
	committed int                   // guarded by mu
	late      int                   // guarded by mu; arrivals that fired behind schedule (backlog indicator)
}

// New creates a generator.
func New(opts Options) (*Generator, error) {
	switch opts.Arrival {
	case "", Poisson, Uniform:
	default:
		return nil, fmt.Errorf("load: unknown arrival distribution %q (valid: %s, %s)",
			opts.Arrival, Poisson, Uniform)
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("load: count must be > 0, got %d", opts.Count)
	}
	return &Generator{
		opts:     opts,
		submitAt: make(map[string]Submission, opts.Count),
		done:     make(map[string]bool, opts.Count),
		early:    make(map[string]time.Time),
	}, nil
}

// Run submits Count transactions spread across the given clients, each
// client pacing its share of the aggregate rate, and returns when every
// arrival has been submitted. Submission errors abort the failing client
// and are joined into the returned error.
func (g *Generator) Run(clients []Submitter) error {
	if len(clients) == 0 {
		return fmt.Errorf("load: no clients")
	}
	perClient := g.opts.Count / len(clients)
	extra := g.opts.Count % len(clients)
	clientRate := g.opts.Rate / float64(len(clients))

	errCh := make(chan error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		n := perClient
		if i < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, c Submitter, n int) {
			defer wg.Done()
			if err := g.runClient(c, n, clientRate, g.opts.Seed+int64(i)); err != nil {
				errCh <- fmt.Errorf("client %d: %w", i, err)
			}
		}(i, c, n)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// runClient is one open-loop arrival process.
func (g *Generator) runClient(c Submitter, n int, rate float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	next := time.Now()
	for i := 0; i < n; i++ {
		if rate > 0 {
			next = next.Add(g.interval(rng, rate))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else if d < 0 {
				g.mu.Lock()
				g.late++
				g.mu.Unlock()
			}
		}
		start := time.Now()
		if rate <= 0 {
			// Unpaced: there is no schedule, so the arrival is the
			// submit call itself — otherwise every latency would be
			// measured from run start.
			next = start
		}
		txid, err := c.SubmitTx()
		if err != nil {
			return err
		}
		end := time.Now()
		g.mu.Lock()
		// Latency is measured from the scheduled arrival, not the actual
		// submit time: if the submit path itself backs up, that queueing
		// delay is part of the end-to-end latency (open-loop semantics).
		g.submitAt[txid] = Submission{Scheduled: next, Start: start, End: end}
		g.submitted++
		// A synchronous commit path can observe the transaction before
		// this record lands; complete such an early observation now.
		earlyAt, early := g.early[txid]
		if early {
			delete(g.early, txid)
			g.done[txid] = true
			g.committed++
			g.latencies = append(g.latencies, earlyAt.Sub(next))
		}
		g.mu.Unlock()
		if early {
			g.opts.E2E.Observe(earlyAt.Sub(next))
		}
	}
	return nil
}

func (g *Generator) interval(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	mean := float64(time.Second) / rate
	switch g.opts.Arrival {
	case Uniform:
		return time.Duration(mean)
	default: // Poisson
		return time.Duration(-math.Log(1-rng.Float64()) * mean)
	}
}

// Committed records that txid committed at the given time and returns
// whether the transaction was one of this generator's (not yet observed)
// submissions. The submission record stays readable through SubmitRecord
// for secondary observation points. An unknown txid is remembered: the
// submitting goroutine may still be between SubmitTx returning and the
// record landing, and completes the sample when it does (the memory cost
// only matters if the generator observes large volumes of foreign
// traffic, which this testbed does not produce).
func (g *Generator) Committed(txid string, at time.Time) bool {
	g.mu.Lock()
	if g.done[txid] {
		g.mu.Unlock()
		return false
	}
	sub, ok := g.submitAt[txid]
	if !ok {
		g.early[txid] = at
		g.mu.Unlock()
		return false
	}
	g.done[txid] = true
	g.committed++
	g.latencies = append(g.latencies, at.Sub(sub.Scheduled))
	g.mu.Unlock()
	g.opts.E2E.Observe(at.Sub(sub.Scheduled))
	return true
}

// SubmitRecord looks up (without consuming) txid's submission: its
// scheduled arrival, for callers tracking a second observation point (the
// hardware delivery path) with their own samples, and its SubmitTx call
// window, for a trace of the submit and endorse spans. The record lands
// once SubmitTx has returned, so an observer that sees the transaction
// inside a block first may miss it.
func (g *Generator) SubmitRecord(txid string) (Submission, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sub, ok := g.submitAt[txid]
	return sub, ok
}

// ObserveBlock records a commit for every envelope of b that this
// generator submitted, and returns how many matched.
func (g *Generator) ObserveBlock(b *block.Block, at time.Time) int {
	matched := 0
	for i := range b.Envelopes {
		txid, err := block.EnvelopeTxID(&b.Envelopes[i])
		if err != nil {
			continue // foreign or malformed envelope: not ours
		}
		if g.Committed(txid, at) {
			matched++
		}
	}
	return matched
}

// Latency digests the recorded end-to-end latencies.
func (g *Generator) Latency() telemetry.Summary {
	g.mu.Lock()
	defer g.mu.Unlock()
	return telemetry.Summarize(g.latencies)
}

// Stats reports submitted/committed transaction counts and how many
// arrivals fired behind schedule.
func (g *Generator) Stats() (submitted, committed, late int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.submitted, g.committed, g.late
}
