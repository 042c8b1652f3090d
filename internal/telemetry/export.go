package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceInfo is a race-free value snapshot of a trace, the unit every
// exporter consumes. Times are integer microseconds: StartUS is
// relative to the tracer's epoch (so multiple traces share one Chrome
// timeline), span StartUS relative to the trace's own start.
type TraceInfo struct {
	ID      uint64     `json:"id"`
	Name    string     `json:"name"`
	StartUS int64      `json:"start_us"`
	DurUS   int64      `json:"dur_us"`
	Attrs   []Attr     `json:"attrs,omitempty"`
	Spans   []SpanInfo `json:"spans"`
}

// SpanInfo is the exported form of one span.
type SpanInfo struct {
	Name    string `json:"name"`
	Lane    int    `json:"lane"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// Unended marks a span still open when its trace finished; its
	// duration is clamped to the trace end. Balance surfaces the leak.
	Unended bool   `json:"unended,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Snapshot copies the trace into its exportable form. Safe on nil
// (zero value). For a trace still in flight the duration runs to "now".
func (tr *Trace) Snapshot() TraceInfo {
	if tr == nil {
		return TraceInfo{}
	}
	now := tr.t.clock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	end := tr.end
	if !tr.done {
		end = now
	}
	info := TraceInfo{
		ID:      tr.id,
		Name:    tr.name,
		StartUS: tr.start.Sub(tr.t.epoch).Microseconds(),
		DurUS:   end.Sub(tr.start).Microseconds(),
		Attrs:   append([]Attr(nil), tr.attrs...),
		Spans:   make([]SpanInfo, 0, len(tr.spans)),
	}
	for _, sp := range tr.spans {
		se := sp.end
		unended := !sp.ended
		if unended || se.After(end) {
			// Clamp to the trace end: open spans, and spans whose End
			// raced past Finish (work that outlived its request). The
			// trace's exported timeline is sealed at Finish.
			se = end
		}
		// Both ends truncate from the trace start, so a span nested in
		// another stays nested in whole microseconds; truncating the
		// duration separately could push a child's end past its
		// parent's.
		startUS := sp.start.Sub(tr.start).Microseconds()
		info.Spans = append(info.Spans, SpanInfo{
			Name:    sp.name,
			Lane:    sp.lane,
			StartUS: startUS,
			DurUS:   se.Sub(tr.start).Microseconds() - startUS,
			Unended: unended,
			Attrs:   append([]Attr(nil), sp.attrs...),
		})
	}
	return info
}

// Validate checks the acceptance-criteria invariants on a finished
// trace: every span lies within the trace bounds, and on each lane the
// spans form a laminar family (any two are nested or disjoint), which
// is exactly what makes a Chrome trace render as a proper flame stack.
func (ti TraceInfo) Validate() error {
	lanes := map[int][]SpanInfo{}
	for _, sp := range ti.Spans {
		if sp.DurUS < 0 {
			return fmt.Errorf("telemetry: span %q has negative duration %dµs", sp.Name, sp.DurUS)
		}
		if sp.StartUS < 0 || sp.StartUS+sp.DurUS > ti.DurUS {
			return fmt.Errorf("telemetry: span %q [%d,%d]µs escapes trace bounds [0,%d]µs",
				sp.Name, sp.StartUS, sp.StartUS+sp.DurUS, ti.DurUS)
		}
		lanes[sp.Lane] = append(lanes[sp.Lane], sp)
	}
	for lane, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].StartUS != spans[j].StartUS {
				return spans[i].StartUS < spans[j].StartUS
			}
			return spans[i].DurUS > spans[j].DurUS
		})
		var stack []SpanInfo
		for _, sp := range spans {
			for len(stack) > 0 && stack[len(stack)-1].StartUS+stack[len(stack)-1].DurUS <= sp.StartUS {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if sp.StartUS+sp.DurUS > top.StartUS+top.DurUS {
					return fmt.Errorf("telemetry: lane %d spans %q and %q overlap without nesting",
						lane, top.Name, sp.Name)
				}
			}
			stack = append(stack, sp)
		}
	}
	return nil
}

// TopLevelSumUS returns the summed duration of the maximal (outermost)
// spans on the given lane — the quantity that must not exceed the
// trace's own duration when the lane is laminar.
func (ti TraceInfo) TopLevelSumUS(lane int) int64 {
	var spans []SpanInfo
	for _, sp := range ti.Spans {
		if sp.Lane == lane {
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].DurUS > spans[j].DurUS
	})
	var sum, horizon int64
	for _, sp := range spans {
		if sp.StartUS >= horizon {
			sum += sp.DurUS
			horizon = sp.StartUS + sp.DurUS
		}
	}
	return sum
}

// chromeEvent is one entry in the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" complete events carry ts+dur in microseconds; ph "M" metadata
// events name the pid/tid lanes for the viewer.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  uint64            `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the object form of the trace-event format; Perfetto and
// chrome://tracing load it directly.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders traces as Chrome trace-event JSON. Each
// trace becomes a pid (process lane) named after the trace; each span
// lane becomes a tid within it, so one file holds a whole ring of
// requests side by side on a shared epoch-relative timeline.
func WriteChromeTrace(w io.Writer, traces []TraceInfo) error {
	file := chromeFile{TraceEvents: []chromeEvent{}}
	for _, ti := range traces {
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  ti.ID,
			Args: map[string]string{"name": fmt.Sprintf("%s #%d", ti.Name, ti.ID)},
		})
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: ti.Name,
			Cat:  "trace",
			Ph:   "X",
			TS:   ti.StartUS,
			Dur:  maxI64(ti.DurUS, 1),
			PID:  ti.ID,
			TID:  0,
			Args: attrArgs(ti.Attrs, false),
		})
		for _, sp := range ti.Spans {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: sp.Name,
				Cat:  "span",
				Ph:   "X",
				TS:   ti.StartUS + sp.StartUS,
				Dur:  maxI64(sp.DurUS, 1),
				PID:  ti.ID,
				TID:  sp.Lane,
				Args: attrArgs(sp.Attrs, sp.Unended),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

func attrArgs(attrs []Attr, unended bool) map[string]string {
	if len(attrs) == 0 && !unended {
		return nil
	}
	args := make(map[string]string, len(attrs)+1)
	for _, a := range attrs {
		args[a.Key] = a.Value
	}
	if unended {
		args["unended"] = "true"
	}
	return args
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
