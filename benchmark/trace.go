package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its own call into the layer (or, for the stages inside CommitBlock,
// laid out from the Breakdown the call returns). Parent is the span that
// caused it; 0 marks a root.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// trace collects the spans of one traced pass in memory. It is filled from
// the timestamps a pass recorded, after the pass is over, by one goroutine.
type trace struct {
	epoch time.Time
	spans []span
}

func newTrace(epoch time.Time) *trace { return &trace{epoch: epoch} }

// add records a span and returns its id for use as a parent.
func (t *trace) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// addSeq lays consecutive child spans of the given durations out from start
// and returns where the last one ends. Zero durations are skipped.
func (t *trace) addSeq(parent int, start time.Time, names []string, durs []time.Duration) time.Time {
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		t.add(names[i], parent, start, start.Add(d))
		start = start.Add(d)
	}
	return start
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover.
func (t *trace) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		self := s.EndNS - s.StartNS - child[s.ID]
		if self > 0 {
			out[s.Name] += time.Duration(self)
		}
	}
	return out
}

// coverage is the share of the root spans' time that named layers account
// for as self time: 1 minus the roots' own self time over their duration.
func (t *trace) coverage(rootName string) float64 {
	var total int64
	for _, s := range t.spans {
		if s.Name == rootName {
			total += s.EndNS - s.StartNS
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(t.selfTimes()[rootName])/float64(total)
}

// write stores the trace as one JSON object per line.
func (t *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
