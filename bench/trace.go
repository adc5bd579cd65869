package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Spans of one request share Req; Parent is the
// index of the enclosing span in the same set, -1 for a request's root.
// N > 1 marks a span that times a loop of N calls as one interval (used
// where timing each call would cost more than the call).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// calls is the number of calls the span times.
func (s span) calls() int { return max(s.N, 1) }

// tracer records spans in memory for one goroutine. A nil *tracer is the
// untraced mode: every method is a no-op, so request code calls it
// unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes a span and returns its duration (0 when untraced).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	return t.spans[id].dur()
}

// endN closes a span that timed a loop of n calls.
func (t *tracer) endN(id, n int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[id].N = n
	return t.end(id)
}

// call times fn as one span and returns its duration.
func (t *tracer) call(name string, parent int, req int64, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// spanSet is the merged, read-only view of every tracer of a run.
type spanSet []span

// merge concatenates tracers, rebasing each one's parent indices.
func merge(ts ...*tracer) spanSet {
	var out spanSet
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// durs returns the durations of every span named name, in microseconds.
func (ss spanSet) durs(name string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// total sums the duration (ns) and call count of every span named name.
func (ss spanSet) total(name string) (ns float64, calls int) {
	for _, s := range ss {
		if s.Name == name {
			ns += float64(s.dur())
			calls += s.calls()
		}
	}
	return ns, calls
}

// perCall is the mean duration (ns) of one call of the named layer.
func (ss spanSet) perCall(name string) float64 {
	ns, n := ss.total(name)
	return ratio(ns, float64(n))
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes computes, per span name, total and self time: a span's self
// time is its duration minus the part its direct children cover.
func (ss spanSet) selfTimes() []layerTime {
	child := make([]float64, len(ss))
	for _, s := range ss {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.dur())
		}
	}
	rows := map[string]*layerTime{}
	var names []string
	for i, s := range ss {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.Spans++
		r.Calls += s.calls()
		r.TotalS += float64(s.dur()) / 1e9
		r.SelfS += (float64(s.dur()) - child[i]) / 1e9
	}
	sort.Strings(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *rows[n])
	}
	return out
}

// writeSpans writes every span plus the self-time table as JSON.
func writeSpans(path string, ss spanSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  spanSet     `json:"spans"`
	}{ss.selfTimes(), ss}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printSelfTimes renders the self-time table.
func printSelfTimes(w io.Writer, ss spanSet) {
	fmt.Fprintf(w, "%-34s %8s %10s %10s %10s\n", "layer", "spans", "calls", "total_s", "self_s")
	for _, r := range ss.selfTimes() {
		fmt.Fprintf(w, "%-34s %8d %10d %10.4f %10.4f\n", r.Name, r.Spans, r.Calls, r.TotalS, r.SelfS)
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value (mean of the two middle values for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
