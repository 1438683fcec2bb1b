// Package pipeline implements the commit engine: the one type that
// validates and commits a block (Engine), over the per-transaction Fabric
// semantics of internal/validator. Its four stages — unmarshal, block-verify
// + vscc, mvcc, state/ledger flush — run in order on the caller's goroutine
// (ValidateAndCommit) or on stage goroutines that overlap consecutive blocks
// (Submit/Results).
//
// One Config field, Shape, picks between two layouts of the same work: the
// paper's Fabric v1.4 software baseline (serial unmarshal, vscc on N
// threads, in-order mvcc) and the default, which also fans unmarshal out and
// executes the mvcc checks of *independent* transactions concurrently. The
// two are Fabric-equivalent — validation flags, commit hash and final state
// database contents are bit-identical on every block — and the differential
// tests in this package prove it against a naive reference validator.
//
// Three pieces serve the default shape's decide stage:
//
//   - the conflict analyzer (this file) builds a per-block transaction
//     dependency graph from declared read/write sets;
//   - the scheduler (scheduler.go) drains that graph with a worker pool,
//     deciding transactions as soon as all of their dependencies have been
//     decided;
//   - the multi-version state cache (mvcache.go) sits in front of
//     internal/statedb so reads issued while earlier blocks are still being
//     flushed resolve to the correct version.
package pipeline

import "bmac/internal/block"

// Access is the declared key-access footprint of one transaction: the keys
// of its endorsement-time read set and write set.
type Access struct {
	Reads  []string
	Writes []string
}

// AccessOf extracts the access footprint from a read/write set. A nil rwset
// (e.g. a transaction that failed to decode) has an empty footprint.
func AccessOf(rw *block.RWSet) Access {
	if rw == nil {
		return Access{}
	}
	a := Access{
		Reads:  make([]string, len(rw.Reads)),
		Writes: make([]string, len(rw.Writes)),
	}
	for i, r := range rw.Reads {
		a.Reads[i] = r.Key
	}
	for i, w := range rw.Writes {
		a.Writes[i] = w.Key
	}
	return a
}

// Graph is a per-block transaction dependency DAG. There is an edge j → i
// exactly when j < i and the write set of j intersects the read set of i: a
// read-after-write hazard. Transaction i's mvcc verdict depends on whether
// each such j turned out valid (and therefore published its writes), so i
// must not be decided before all of its dependencies are.
//
// Write-write and write-after-read pairs need no edges: final state is
// reconstructed from the multi-version cache in transaction order (last
// valid writer wins), and reads never observe in-flight writes of later
// transactions because version lookups filter on transaction number.
type Graph struct {
	n          int
	deps       [][]int // deps[i]: transactions i waits on (all < i)
	dependents [][]int // dependents[j]: transactions waiting on j (all > j)
	indegree   []int
	edges      int
}

// BuildGraph analyzes the declared access footprints of one block's
// transactions and returns the dependency graph.
func BuildGraph(accs []Access) *Graph {
	g := &Graph{
		n:          len(accs),
		deps:       make([][]int, len(accs)),
		dependents: make([][]int, len(accs)),
		indegree:   make([]int, len(accs)),
	}
	// writers[key] = ascending indices of transactions declaring a write.
	writers := make(map[string][]int)
	seen := make(map[int]bool) // per-tx dedup scratch, reset each iteration
	for i, a := range accs {
		for k := range seen {
			delete(seen, k)
		}
		for _, key := range a.Reads {
			for _, j := range writers[key] {
				// writers hold only indices < i (appended after this loop).
				if !seen[j] {
					seen[j] = true
					g.deps[i] = append(g.deps[i], j)
					g.dependents[j] = append(g.dependents[j], i)
					g.edges++
				}
			}
		}
		g.indegree[i] = len(g.deps[i])
		for _, key := range a.Writes {
			writers[key] = append(writers[key], i)
		}
	}
	return g
}

// N returns the number of transactions.
func (g *Graph) N() int { return g.n }

// Edges returns the number of dependency edges (a contention measure).
func (g *Graph) Edges() int { return g.edges }

// Deps returns the dependencies of transaction i (indices < i).
func (g *Graph) Deps(i int) []int { return g.deps[i] }

// Dependents returns the transactions that wait on transaction i.
func (g *Graph) Dependents(i int) []int { return g.dependents[i] }

// CriticalPath returns the length (in transactions) of the longest
// dependency chain — the lower bound on parallel execution depth. An empty
// block reports 0; a conflict-free block reports 1.
func (g *Graph) CriticalPath() int {
	depth := make([]int, g.n)
	max := 0
	for i := 0; i < g.n; i++ { // deps all have smaller indices: one pass
		d := 1
		for _, j := range g.deps[i] {
			if depth[j]+1 > d {
				d = depth[j] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}
