package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer's public API. The benchmark records
// it around the call; nothing inside the program is instrumented.
type span struct {
	Name string `json:"name"`
	// Parent indexes the enclosing span in tracer.spans (-1 for a root).
	Parent int `json:"parent"`
	// StartNS and EndNS are offsets from the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Count is how many operations the span stands for: the loop count of
	// a kernel, or the number of calls folded into an aggregate span.
	Count int64 `json:"count"`
	// BusyNS is the time the span's own calls took: EndNS-StartNS for an
	// ordinary span, the sum of the call durations for an aggregate.
	BusyNS int64 `json:"busy_ns"`
	// SelfNS is BusyNS minus the busy time of the span's children.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps one workload's span tree in memory. A nil *tracer is the
// untraced mode: span still runs and times the call but records nothing,
// so traced and untraced runs execute the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// span times fn as one operation named name, nested under the innermost
// open span.
func (t *tracer) span(name string, fn func() error) (time.Duration, error) {
	return t.spanN(name, 1, fn)
}

// spanN is span for a call that performs count operations; the span's
// self time is reported next to count so it can be read per operation.
func (t *tracer) spanN(name string, count int64, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), StartNS: t.now(), Count: count})
	t.open = append(t.open, id)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNS = t.now()
	s.BusyNS = s.EndNS - s.StartNS
	return time.Duration(s.BusyNS), err
}

// aggregate records count calls that took busy in total, made while the
// innermost open span ran, as one child span covering that span so far.
func (t *tracer) aggregate(name string, count int64, busy time.Duration) {
	if t == nil {
		return
	}
	p := t.parent()
	start := t.now()
	if p >= 0 {
		start = t.spans[p].StartNS
	}
	t.spans = append(t.spans, span{Name: name, Parent: p, StartNS: start, EndNS: t.now(),
		Count: count, BusyNS: int64(busy)})
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// finish computes every span's self time and returns the tree.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].BusyNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.BusyNS
		}
	}
	return t.spans
}

// checkSpans reports the first span whose self time is negative or whose
// interval does not fit inside its parent's.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.SelfNS < 0 {
			return fmt.Errorf("span %d %q: negative self time %d ns", i, s.Name, s.SelfNS)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %q: ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("span %d %q: [%d,%d] outside parent %q [%d,%d]",
					i, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	return nil
}

// writeSpanTable prints spans with self time per counted operation,
// heaviest self time first.
func writeSpanTable(w io.Writer, spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].SelfNS > spans[order[b]].SelfNS })
	fmt.Fprintf(w, "%-40s %12s %12s %12s %14s\n", "span", "busy ms", "self ms", "count", "self ns/count")
	for _, i := range order {
		s := spans[i]
		perOp := 0.0
		if s.Count > 0 {
			perOp = float64(s.SelfNS) / float64(s.Count)
		}
		fmt.Fprintf(w, "%-40s %12.3f %12.3f %12d %14.1f\n", s.Name,
			float64(s.BusyNS)/1e6, float64(s.SelfNS)/1e6, s.Count, perOp)
	}
}
