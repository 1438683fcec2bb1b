package statedb

import (
	"testing"

	"bmac/internal/block"
)

// TestAccessCountersToggle pins the count_accesses gate on Store, the one
// backend it gates (HybridKVS counts for free under its own mutex):
// disabled counters freeze, re-enabled counters resume, and data operations
// are unaffected either way.
func TestAccessCountersToggle(t *testing.T) {
	backends := map[string]KVS{
		"store": NewStore(),
	}
	for name, kvs := range backends {
		t.Run(name, func(t *testing.T) {
			kvs.Put("a", []byte("1"), block.Version{BlockNum: 1})
			kvs.Get("a")
			r0, w0 := kvs.AccessCounts()
			if r0 == 0 || w0 == 0 {
				t.Fatalf("counting should default on: reads=%d writes=%d", r0, w0)
			}

			kvs.SetCountAccesses(false)
			kvs.Put("b", []byte("2"), block.Version{BlockNum: 2})
			kvs.Get("a")
			kvs.Get("b")
			kvs.Version("a")
			if r, w := kvs.AccessCounts(); r != r0 || w != w0 {
				t.Fatalf("counters moved while disabled: %d/%d -> %d/%d", r0, w0, r, w)
			}
			if _, err := kvs.Get("b"); err != nil {
				t.Fatalf("data path broken while counters off: %v", err)
			}

			kvs.SetCountAccesses(true)
			kvs.Get("a")
			if r, _ := kvs.AccessCounts(); r != r0+1 {
				t.Fatalf("counters did not resume: reads=%d want %d", r, r0+1)
			}
		})
	}
}
