//go:build timing

package orderer

import (
	"testing"
	"time"
)

// TestTimingIdleCut times the idle rule: a lone envelope on an idle orderer
// becomes a block within 50 ms, with BatchTimeout an hour. It is a
// wall-clock ceiling, so a loaded machine can fail it; TestIdleCut checks
// the same cut by its counters. Run it with
//
//	go test -tags timing -run TestTiming -count=1 ./internal/orderer/
func TestTimingIdleCut(t *testing.T) {
	f := newFixture(t)
	col := newCollector()
	o := New(Config{BatchSize: 100, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, f.cluster.Nodes[0])
	defer o.Stop()
	o.OnDeliver(col.deliver)

	env := f.envelope(t)
	start := time.Now()
	if err := o.Submit(env); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 5*time.Second)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("lone envelope became a block after %v, want < 50ms", d)
	}
	wantCuts(t, o, 0, 1, 0)
}
