package pipeline

// Access is the declared key-access footprint of one transaction: the keys
// of its endorsement-time read set and write set.
type Access struct {
	Reads  []string
	Writes []string
}

// Graph is a per-block transaction dependency DAG, a measure of a block's
// contention. There is an edge j → i exactly when j < i and the write set of
// j intersects the read set of i: a read-after-write hazard, the only pair
// whose order can change transaction i's mvcc verdict. Write-write and
// write-after-read pairs get no edge.
type Graph struct {
	deps  [][]int // deps[i]: transactions i depends on (all < i)
	edges int
}

// BuildGraph analyzes the declared access footprints of one block's
// transactions and returns the dependency graph.
func BuildGraph(accs []Access) *Graph {
	g := &Graph{deps: make([][]int, len(accs))}
	// writers[key] = ascending indices of transactions declaring a write.
	writers := make(map[string][]int)
	seen := make(map[int]bool) // per-tx dedup scratch, reset each iteration
	for i, a := range accs {
		clear(seen)
		for _, key := range a.Reads {
			for _, j := range writers[key] {
				// writers hold only indices < i (appended after this loop).
				if !seen[j] {
					seen[j] = true
					g.deps[i] = append(g.deps[i], j)
					g.edges++
				}
			}
		}
		for _, key := range a.Writes {
			writers[key] = append(writers[key], i)
		}
	}
	return g
}

// Edges returns the number of dependency edges (a contention measure).
func (g *Graph) Edges() int { return g.edges }

// Deps returns the dependencies of transaction i (indices < i).
func (g *Graph) Deps(i int) []int { return g.deps[i] }

// CriticalPath returns the length (in transactions) of the longest
// dependency chain — the lower bound on parallel execution depth. An empty
// block reports 0; a conflict-free block reports 1.
func (g *Graph) CriticalPath() int {
	depth := make([]int, len(g.deps))
	longest := 0
	for i, deps := range g.deps { // deps all have smaller indices: one pass
		d := 1
		for _, j := range deps {
			d = max(d, depth[j]+1)
		}
		depth[i] = d
		longest = max(longest, d)
	}
	return longest
}
