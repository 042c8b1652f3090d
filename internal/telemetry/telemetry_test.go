package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"helios/internal/telemetry"
)

// fakeClock is a hand-advanced clock so span arithmetic is exact.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSpanLifecycleAndSnapshot(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now})

	c.Advance(us(10))
	req := tr.StartTrace("POST /v1/run")
	req.SetAttr("workload", "crc32")

	c.Advance(us(5))
	adm := req.Start("admission")
	c.Advance(us(3))
	adm.End()

	outer := req.Start("replay")
	outer.SetInt("n", 2)
	c.Advance(us(2))
	inner := req.Start("degrade")
	inner.SetBool("err", false)
	c.Advance(us(7))
	inner.End()
	c.Advance(us(1))
	outer.End()

	lane := telemetry.StartSpan(telemetry.WithLane(telemetry.WithTrace(context.Background(), req), 3), "cell")
	c.Advance(us(4))
	lane.End()

	req.Finish()

	if err := tr.Balance(); err != nil {
		t.Fatalf("Balance: %v", err)
	}
	got := tr.Finished()
	if len(got) != 1 {
		t.Fatalf("Finished: got %d traces, want 1", len(got))
	}
	ti := got[0]
	if ti.Name != "POST /v1/run" || ti.ID != 1 {
		t.Fatalf("trace identity: %+v", ti)
	}
	if ti.StartUS != 10 {
		t.Fatalf("trace StartUS = %d, want 10", ti.StartUS)
	}
	if ti.DurUS != 22 {
		t.Fatalf("trace DurUS = %d, want 22", ti.DurUS)
	}
	if err := ti.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	byName := map[string]telemetry.SpanInfo{}
	for _, sp := range ti.Spans {
		byName[sp.Name] = sp
	}
	if sp := byName["admission"]; sp.StartUS != 5 || sp.DurUS != 3 {
		t.Fatalf("admission span = %+v", sp)
	}
	if sp := byName["replay"]; sp.StartUS != 8 || sp.DurUS != 10 {
		t.Fatalf("replay span = %+v", sp)
	}
	if sp := byName["degrade"]; sp.StartUS != 10 || sp.DurUS != 7 {
		t.Fatalf("degrade span = %+v", sp)
	}
	if sp := byName["cell"]; sp.Lane != 3 || sp.DurUS != 4 {
		t.Fatalf("cell span = %+v", sp)
	}
	// Lane 0 top-level spans (admission + replay, degrade nested
	// inside) must sum to no more than the trace duration.
	if sum := ti.TopLevelSumUS(0); sum != 13 || sum > ti.DurUS {
		t.Fatalf("TopLevelSumUS(0) = %d (trace %d)", sum, ti.DurUS)
	}

	hists := tr.Histograms()
	names := make([]string, 0, len(hists))
	for _, nh := range hists {
		names = append(names, nh.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"POST /v1/run", "admission", "replay", "degrade", "cell"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Histograms missing %q: %v", want, names)
		}
	}
	for _, nh := range hists {
		if nh.Hist.Count != 1 {
			t.Fatalf("histogram %q count = %d, want 1", nh.Name, nh.Hist.Count)
		}
	}
}

// TestSnapshotKeepsNestingUnderTruncation: spans export in whole
// microseconds, and a child ending in the same microsecond as its
// parent must still nest inside it.
func TestSnapshotKeepsNestingUnderTruncation(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now})
	req := tr.StartTrace("r")
	c.Advance(900 * time.Nanosecond)
	outer := req.Start("cell")
	c.Advance(100 * time.Nanosecond)
	inner := req.Start("cache_read")
	c.Advance(2 * time.Microsecond)
	inner.End()
	c.Advance(50 * time.Nanosecond)
	outer.End()
	req.Finish()
	if err := tr.Finished()[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceViolations(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now})

	// Unended span → imbalance.
	req := tr.StartTrace("r")
	req.Start("leak")
	req.Finish()
	if err := tr.Balance(); err == nil || !strings.Contains(err.Error(), "imbalance") {
		t.Fatalf("Balance after leak = %v, want span imbalance", err)
	}
	m := tr.Metrics()
	if m.SpansStarted != 1 || m.SpansEnded != 0 {
		t.Fatalf("Metrics after leak: %+v", m)
	}
	// The leaked span exports clamped and flagged.
	ti := tr.Finished()[0]
	if len(ti.Spans) != 1 || !ti.Spans[0].Unended {
		t.Fatalf("leaked span not flagged: %+v", ti.Spans)
	}

	// Double End is counted and ignored.
	tr2 := telemetry.New(telemetry.Options{Clock: c.Now})
	req2 := tr2.StartTrace("r")
	sp := req2.Start("x")
	sp.End()
	sp.End()
	req2.Finish()
	if err := tr2.Balance(); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("Balance after double end = %v", err)
	}
	if m := tr2.Metrics(); m.SpanDoubleEnds != 1 {
		t.Fatalf("SpanDoubleEnds = %d, want 1", m.SpanDoubleEnds)
	}

	// Spans started after Finish are dropped, not leaked: the balance
	// holds even when work outlives a canceled request.
	tr3 := telemetry.New(telemetry.Options{Clock: c.Now})
	req3 := tr3.StartTrace("r")
	req3.Finish()
	if sp := req3.Start("late"); sp != nil {
		t.Fatal("Start on finished trace returned a live span")
	}
	if err := tr3.Balance(); err != nil {
		t.Fatalf("Balance with dropped span: %v", err)
	}
	if m := tr3.Metrics(); m.SpansDropped != 1 {
		t.Fatalf("SpansDropped = %d, want 1", m.SpansDropped)
	}
}

func TestRingEviction(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now, Ring: 2})
	for i := 0; i < 5; i++ {
		req := tr.StartTrace("r")
		c.Advance(us(1))
		req.Finish()
	}
	got := tr.Finished()
	if len(got) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(got))
	}
	if got[0].ID != 4 || got[1].ID != 5 {
		t.Fatalf("ring retained IDs %d,%d, want 4,5", got[0].ID, got[1].ID)
	}
	if m := tr.Metrics(); m.RingEvicted != 3 {
		t.Fatalf("RingEvicted = %d, want 3", m.RingEvicted)
	}
}

func TestContextThreading(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now})
	req := tr.StartTrace("r")
	ctx := telemetry.WithTrace(context.Background(), req)
	if got := telemetry.FromContext(ctx); got != req {
		t.Fatal("FromContext did not return the threaded trace")
	}
	if got := telemetry.FromContext(context.Background()); got != nil {
		t.Fatal("FromContext on a bare context returned a trace")
	}
	if got := telemetry.WithTrace(context.Background(), nil); got != context.Background() {
		t.Fatal("WithTrace(nil) did not return ctx unchanged")
	}
	req.Finish()
}

func TestChromeTraceExport(t *testing.T) {
	c := newFakeClock()
	tr := telemetry.New(telemetry.Options{Clock: c.Now})
	req := tr.StartTrace("POST /v1/run")
	sp := req.Start("replay")
	sp.SetAttr("workload", "crc32")
	c.Advance(us(9))
	sp.End()
	req.Finish()

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr.Finished()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  uint64            `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	// One metadata event, one root X event, one span X event.
	if len(file.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(file.TraceEvents))
	}
	var phs []string
	for _, ev := range file.TraceEvents {
		phs = append(phs, ev.Ph)
	}
	if strings.Join(phs, "") != "MXX" {
		t.Fatalf("event phases = %v", phs)
	}
	span := file.TraceEvents[2]
	if span.Name != "replay" || span.Dur != 9 || span.Args["workload"] != "crc32" {
		t.Fatalf("span event = %+v", span)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	bad := telemetry.TraceInfo{
		Name:  "r",
		DurUS: 100,
		Spans: []telemetry.SpanInfo{
			{Name: "a", Lane: 0, StartUS: 0, DurUS: 60},
			{Name: "b", Lane: 0, StartUS: 50, DurUS: 40}, // straddles a's end
		},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("Validate = %v, want overlap error", err)
	}
	escape := telemetry.TraceInfo{
		Name:  "r",
		DurUS: 10,
		Spans: []telemetry.SpanInfo{{Name: "a", StartUS: 5, DurUS: 20}},
	}
	if err := escape.Validate(); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("Validate = %v, want bounds error", err)
	}
}

// TestDisabledPathNoAllocs pins the package's core contract: with a nil
// tracer every hook — trace start, context threading, span start,
// attributes, end, finish, metrics reads — allocates nothing. This is
// the telemetry twin of obs's TestCommitObsOffNoAllocs; serve pins the
// same property end to end in TestServeTelemetryOffNoAllocs.
func TestDisabledPathNoAllocs(t *testing.T) {
	ctx := context.Background()
	var disabled *telemetry.Tracer
	allocs := testing.AllocsPerRun(200, func() {
		tr := disabled.StartTrace("POST /v1/run")
		c := telemetry.WithTrace(ctx, tr)
		tr2 := telemetry.FromContext(c)
		tr2.SetAttr("workload", "crc32")
		sp := tr2.Start("admission")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		sp.SetBool("b", true)
		sp.End()
		lane := telemetry.StartSpan(telemetry.WithLane(c, 7), "cell")
		lane.End()
		tr2.Finish()
		if disabled.Balance() != nil {
			t.Fatal("nil tracer out of balance")
		}
		if disabled.Metrics() != (telemetry.Metrics{}) {
			t.Fatal("nil tracer has metrics")
		}
		if disabled.Finished() != nil || disabled.Histograms() != nil {
			t.Fatal("nil tracer has traces")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %v allocs/op, want 0", allocs)
	}
}
