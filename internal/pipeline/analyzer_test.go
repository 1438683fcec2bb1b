package pipeline

import (
	"reflect"
	"testing"
)

func TestBuildGraphEmpty(t *testing.T) {
	g := BuildGraph(nil)
	if g.Edges() != 0 || g.CriticalPath() != 0 {
		t.Errorf("empty graph: edges=%d cp=%d", g.Edges(), g.CriticalPath())
	}
}

func TestBuildGraphIndependent(t *testing.T) {
	g := BuildGraph([]Access{
		{Reads: []string{"a"}, Writes: []string{"x"}},
		{Reads: []string{"b"}, Writes: []string{"y"}},
		{Reads: []string{"c"}, Writes: []string{"z"}},
	})
	if g.Edges() != 0 {
		t.Errorf("independent txs: %d edges", g.Edges())
	}
	if g.CriticalPath() != 1 {
		t.Errorf("critical path = %d, want 1", g.CriticalPath())
	}
}

func TestBuildGraphRAWChain(t *testing.T) {
	// 0 writes a, 1 reads a writes b, 2 reads b: a serial chain.
	g := BuildGraph([]Access{
		{Writes: []string{"a"}},
		{Reads: []string{"a"}, Writes: []string{"b"}},
		{Reads: []string{"b"}},
	})
	if g.Edges() != 2 {
		t.Fatalf("edges = %d, want 2", g.Edges())
	}
	if !reflect.DeepEqual(g.Deps(1), []int{0}) || !reflect.DeepEqual(g.Deps(2), []int{1}) {
		t.Errorf("deps: %v %v", g.Deps(1), g.Deps(2))
	}
	if g.CriticalPath() != 3 {
		t.Errorf("critical path = %d, want 3", g.CriticalPath())
	}
}

func TestBuildGraphNoWAWOrWAREdges(t *testing.T) {
	// 0 writes a; 1 writes a (WAW); 2 reads b then 3 writes b (WAR seen
	// from 3's side). Neither pair needs an edge.
	g := BuildGraph([]Access{
		{Writes: []string{"a"}},
		{Writes: []string{"a"}},
		{Reads: []string{"b"}},
		{Writes: []string{"b"}},
	})
	if g.Edges() != 0 {
		t.Errorf("WAW/WAR produced %d edges, want 0", g.Edges())
	}
}

func TestBuildGraphDedupAndOrder(t *testing.T) {
	// tx2 reads two keys both written by tx0: exactly one edge. Also reads
	// a key written by the later tx3: no edge (writers after the reader
	// never constrain it).
	g := BuildGraph([]Access{
		{Writes: []string{"a", "b"}},
		{},
		{Reads: []string{"a", "b", "c"}},
		{Writes: []string{"c"}},
	})
	if !reflect.DeepEqual(g.Deps(2), []int{0}) {
		t.Errorf("deps(2) = %v, want [0]", g.Deps(2))
	}
	if g.Edges() != 1 {
		t.Errorf("edges = %d, want 1", g.Edges())
	}
}

func TestAccessOf(t *testing.T) {
	if a := AccessOf(nil); len(a.Reads) != 0 || len(a.Writes) != 0 {
		t.Error("nil rwset should have empty access")
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// 0 writes a,b; 1 reads a; 2 reads b; 3 reads c written by 1 and 2 -> depth 3.
	g := BuildGraph([]Access{
		{Writes: []string{"a", "b"}},
		{Reads: []string{"a"}, Writes: []string{"c"}},
		{Reads: []string{"b"}, Writes: []string{"c"}},
		{Reads: []string{"c"}},
	})
	if g.CriticalPath() != 3 {
		t.Errorf("critical path = %d, want 3", g.CriticalPath())
	}
	if !reflect.DeepEqual(g.Deps(3), []int{1, 2}) {
		t.Errorf("deps(3) = %v", g.Deps(3))
	}
}
