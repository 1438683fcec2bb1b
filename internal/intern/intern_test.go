package intern

import (
	"hash/maphash"
	"strconv"
	"sync"
	"testing"
)

// tail is the test's compute function: pure, and its result aliases the
// bytes it was computed from, as a parsed certificate or envelope does.
func tail(in []byte) []byte { return in[1:] }

// TestBound: however many distinct inputs go in, no shard holds more than
// its share of the table's size, and a size below Shards still keeps one
// entry per shard.
func TestBound(t *testing.T) {
	for _, size := range []int{1, 5, 40, 1000} {
		tb := New[[]byte](size)
		for i := 0; i < 5000; i++ {
			tb.Get([]byte("input-"+strconv.Itoa(i)), tail)
		}
		perShard := max(size/Shards, 1)
		for i := range tb.shards {
			sh := &tb.shards[i]
			sh.mu.Lock()
			n, m := sh.order.Len(), len(sh.entries)
			sh.mu.Unlock()
			if n > perShard || n != m {
				t.Errorf("size %d: shard %d holds %d list / %d map entries, want at most %d", size, i, n, m, perShard)
			}
		}
	}
}

// TestHitDoesNotAliasInput: the caller may reuse its buffer after Get; the
// interned input and value are the table's own copy.
func TestHitDoesNotAliasInput(t *testing.T) {
	tb := New[[]byte](64)
	buf := []byte("payload")
	if v, hit := tb.Get(buf, tail); hit || string(v) != "ayload" {
		t.Fatalf("first Get = %q, hit %v", v, hit)
	}
	v, hit := tb.Get(buf, tail)
	if !hit || string(v) != "ayload" {
		t.Fatalf("second Get = %q, hit %v", v, hit)
	}
	copy(buf, "garbage")
	if string(v) != "ayload" {
		t.Fatalf("hit aliases the caller's buffer: %q", v)
	}
	if _, hit := tb.Get(buf, tail); hit {
		t.Fatal("mutated input served from the old entry")
	}
	if v, hit := tb.Get([]byte("payload"), tail); !hit || string(v) != "ayload" {
		t.Fatalf("entry corrupted by the caller's mutation: %q, hit %v", v, hit)
	}
}

// TestCollisionRecomputes plants an entry for another input under an
// input's hash key: the byte comparison must refuse it, recompute and
// count a miss.
func TestCollisionRecomputes(t *testing.T) {
	tb := New[[]byte](64)
	in := []byte("alpha")
	key := maphash.Bytes(seed, in)
	sh := &tb.shards[key%Shards]
	sh.mu.Lock()
	sh.entries[key] = sh.order.PushFront(&entry[[]byte]{key: key, in: []byte("omega"), val: []byte("WRONG")})
	sh.mu.Unlock()

	v, hit := tb.Get(in, tail)
	if hit || string(v) != "lpha" {
		t.Fatalf("Get = %q, hit %v; want a recomputed lpha", v, hit)
	}
	if hits, misses := tb.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	if v, hit := tb.Get(in, tail); !hit || string(v) != "lpha" {
		t.Fatalf("after the recompute Get = %q, hit %v", v, hit)
	}
}

// TestNilTableComputes: the disabled table computes on every call and
// reports no traffic.
func TestNilTableComputes(t *testing.T) {
	tb := New[[]byte](0)
	if tb != nil {
		t.Fatal("New(0) should be nil (disabled)")
	}
	calls := 0
	count := func(in []byte) []byte { calls++; return in }
	for i := 0; i < 3; i++ {
		if _, hit := tb.Get([]byte("x"), count); hit {
			t.Fatal("nil table reported a hit")
		}
	}
	if calls != 3 {
		t.Errorf("compute ran %d times, want 3", calls)
	}
	if h, m := tb.Stats(); h != 0 || m != 0 || tb.HitRate() != 0 {
		t.Errorf("nil table stats = %d/%d, rate %v", h, m, tb.HitRate())
	}
}

// TestConcurrentGet hammers one small table from many goroutines with more
// inputs than it holds (evictions on every shard); run under -race. Every
// result must be the input's own value, hit or miss.
func TestConcurrentGet(t *testing.T) {
	tb := New[[]byte](Shards)
	inputs := make([]string, 48)
	for i := range inputs {
		inputs[i] = "key-" + strconv.Itoa(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 500; it++ {
				in := inputs[(g*7+it)%len(inputs)]
				v, _ := tb.Get([]byte(in), tail)
				if want := in[1:]; string(v) != want {
					t.Errorf("Get(%q) = %q, want %q", in, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h, m := tb.Stats(); h+m != 8*500 {
		t.Errorf("%d hits + %d misses, want %d lookups", h, m, 8*500)
	}
}
