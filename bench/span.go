package main

import (
	"sort"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call into
// a layer: name, start and end (nanoseconds since the recorder was made),
// the span that caused it (-1 for a root) and the trace — one per rep, one
// for the layer probes — that all spans of one unit of work share.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// Recorder holds the benchmark's own spans in memory until the run ends.
// A nil *Recorder records nothing, which is how the untraced run keeps
// tracing off. It is used from the driver goroutine only.
type Recorder struct {
	epoch time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span now and returns its id (-1 on a nil recorder).
func (r *Recorder) Begin(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	return r.Add(trace, parent, name, time.Now(), time.Time{})
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
}

// Add records a span whose interval is already known (the run/detect
// split is only known once the cluster reports its last activity).
func (r *Recorder) Add(trace, parent int, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	s := Span{ID: len(r.spans), Parent: parent, Trace: trace, Name: name, Start: start.Sub(r.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns the recorded spans with self times filled in.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := append([]Span(nil), r.spans...)
	fillSelfTimes(out)
	return out
}

// fillSelfTimes sets each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, children are clipped to the parent).
func fillSelfTimes(spans []Span) {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upto := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}
