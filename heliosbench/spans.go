package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call of the program. Spans of one request share the root's
// ID through Parent links.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (l *spanLog) begin(parent int, layer, name, class string) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent,
		Layer: layer, Name: name, Class: class, Start: now, End: -1})
	return len(l.spans)
}

// end closes the span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a span whose interval the caller measured itself, as the
// load generator does for a request timed from when it was due.
func (l *spanLog) add(parent int, layer, name, class string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Layer: layer,
		Name: name, Class: class, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	l.mu.Unlock()
}

// snapshot returns the closed spans.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]span, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func (l *spanLog) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerTime is where one layer's host time went in a traced run.
type layerTime struct {
	Layer string
	Spans int
	Busy  time.Duration // summed span durations
	Self  time.Duration // busy minus the intervals child spans cover
}

// selfTimes sums, per layer, each span's duration and its self time:
// the span's duration minus the part of its interval that its child
// spans cover (overlapping children are counted once). Layers come back
// sorted by self time, largest first.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		lt, ok := byLayer[s.Layer]
		if !ok {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
			order = append(order, s.Layer)
		}
		lt.Spans++
		lt.Busy += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byLayer[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var curA, curB int64 = 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// spansOf returns the durations, in milliseconds, of the spans of one
// layer and (when class is non-empty) one request class.
func spansOf(spans []span, layer, class string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && (class == "" || s.Class == class) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
