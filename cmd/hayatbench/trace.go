package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one chip lifetime or one
// request share Trace; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the benchmark started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return id
}

// open records a span whose end is not known yet, so that its children
// can name it as their parent; close sets the end.
func (t *tracer) open(trace, parent int, name string, start time.Time) int {
	return t.add(trace, parent, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime returns the part of parent's interval that none of its
// children cover: overlapping children are counted once, and the parts of
// children outside the parent are ignored.
func selfTime(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := 0.0, parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		covered += x[1] - max(x[0], end)
		end = x[1]
	}
	return parent.dur() - covered
}

// spanStats sums span durations and counts spans by name.
type spanStats struct {
	sum   map[string]float64
	count map[string]int
}

func summarize(spans []span) spanStats {
	st := spanStats{sum: map[string]float64{}, count: map[string]int{}}
	for _, s := range spans {
		st.sum[s.Name] += s.dur()
		st.count[s.Name]++
	}
	return st
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}
