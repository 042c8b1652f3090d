package sampling

import (
	"testing"
	"time"

	"helios/internal/telemetry"
)

func traceWith(id uint64, durUS int64, outcome string, spans ...string) telemetry.TraceInfo {
	ti := telemetry.TraceInfo{ID: id, Name: "POST /v1/run", StartUS: int64(id) * 1000, DurUS: durUS}
	if outcome != "" {
		ti.Attrs = []telemetry.Attr{{Key: "outcome", Value: outcome}}
	}
	for _, name := range spans {
		ti.Spans = append(ti.Spans, telemetry.SpanInfo{Name: name, DurUS: durUS / 2})
	}
	return ti
}

func TestErrorsPolicy(t *testing.T) {
	p := Errors()
	if keep, prio := p.Decide(traceWith(1, 100, "ok")); keep || prio != 0 {
		t.Fatalf("ok trace kept (keep=%v prio=%d)", keep, prio)
	}
	for _, outcome := range []string{"bad-request", "overload", "engine-fault", "panic", "deadline"} {
		keep, prio := p.Decide(traceWith(2, 100, outcome))
		if !keep || prio != PrioError {
			t.Fatalf("outcome %q: keep=%v prio=%d, want keep at PrioError", outcome, keep, prio)
		}
	}
	// A span flagged err=true (core.Suite's failed-replay marker)
	// keeps the trace even when the request-level outcome looks healthy.
	ti := traceWith(3, 100, "ok", "replay")
	ti.Spans[0].Attrs = []telemetry.Attr{{Key: "err", Value: "true"}}
	if keep, _ := p.Decide(ti); !keep {
		t.Fatal("trace with err=true span was not kept")
	}
}

func TestFloorDeterminismAndRate(t *testing.T) {
	const seed = 42
	p := Floor(0.10, seed)
	q := Floor(0.10, seed)
	kept := 0
	for id := uint64(1); id <= 10000; id++ {
		k1, prio := p.Decide(traceWith(id, 100, "ok"))
		k2, _ := q.Decide(traceWith(id, 100, "ok"))
		if k1 != k2 {
			t.Fatalf("id %d: same seed disagrees", id)
		}
		if k1 {
			if prio != PrioFloor {
				t.Fatalf("floor keeps at prio %d, want %d", prio, PrioFloor)
			}
			kept++
		}
	}
	// 10% ± 1.5% over 10k hashed IDs.
	if kept < 850 || kept > 1150 {
		t.Fatalf("floor kept %d of 10000, want ~1000", kept)
	}
	if k, _ := Floor(0, seed).Decide(traceWith(7, 1, "ok")); k {
		t.Fatal("rate-0 floor kept a trace")
	}
	if k, _ := Floor(1, seed).Decide(traceWith(7, 1, "ok")); !k {
		t.Fatal("rate-1 floor dropped a trace")
	}
}

func TestLimitTokenBucket(t *testing.T) {
	// 1 keeper per second, burst 2; trace finish timestamps drive refill.
	p := Limit(All(), 1, 2)
	mk := func(id uint64, finishUS int64) telemetry.TraceInfo {
		return telemetry.TraceInfo{ID: id, StartUS: finishUS, DurUS: 0}
	}
	if k, prio := p.Decide(mk(1, 0)); !k || prio != PrioRate {
		t.Fatalf("first trace: keep=%v prio=%d", k, prio)
	}
	if k, _ := p.Decide(mk(2, 0)); !k {
		t.Fatal("burst token 2 not granted")
	}
	if k, _ := p.Decide(mk(3, 0)); k {
		t.Fatal("kept beyond burst with no time passed")
	}
	// One second later one token has refilled.
	if k, _ := p.Decide(mk(4, int64(time.Second/time.Microsecond))); !k {
		t.Fatal("refilled token not granted")
	}
	if k, _ := p.Decide(mk(5, int64(time.Second/time.Microsecond))); k {
		t.Fatal("second keep from a single refilled token")
	}
}

func TestSlowTailAdaptiveThreshold(t *testing.T) {
	p := SlowTail(99, 32)
	// Warmup: uniform fast traffic feeds the histogram, nothing kept.
	for id := uint64(1); id <= 32; id++ {
		if k, _ := p.Decide(traceWith(id, 10, "ok")); k {
			t.Fatalf("trace %d kept during warmup", id)
		}
	}
	// Post-warmup uniform traffic sits at the percentile, not above it.
	if k, _ := p.Decide(traceWith(33, 10, "ok")); k {
		t.Fatal("uniform-latency trace kept as slow")
	}
	keep, prio := p.Decide(traceWith(34, 50_000, "ok"))
	if !keep || prio != PrioSlow {
		t.Fatalf("outlier: keep=%v prio=%d, want keep at PrioSlow", keep, prio)
	}
	// The threshold adapts: after enough slow traffic, what was an
	// outlier becomes the norm and stops being kept.
	for id := uint64(35); id < 3500; id++ {
		p.Decide(traceWith(id, 50_000, "ok"))
	}
	if k, _ := p.Decide(traceWith(4000, 50_000, "ok")); k {
		t.Fatal("threshold did not adapt to the new normal")
	}
}

func TestSpanBoost(t *testing.T) {
	p := SpanBoost(PrioSpan, "record", "degrade")
	if k, _ := p.Decide(traceWith(1, 100, "ok", "admission", "cache_read")); k {
		t.Fatal("cached trace kept by span boost")
	}
	keep, prio := p.Decide(traceWith(2, 100, "ok", "admission", "record", "replay"))
	if !keep || prio != PrioSpan {
		t.Fatalf("record trace: keep=%v prio=%d", keep, prio)
	}
	if k, _ := p.Decide(traceWith(3, 100, "ok", "degrade")); !k {
		t.Fatal("degrade trace not kept")
	}
}

func TestChainHighestPriorityWins(t *testing.T) {
	c := NewChain(
		Floor(1, 1), // keeps everything at PrioFloor
		Errors(),    // keeps errors at PrioError
	)
	v := c.Sample(traceWith(1, 100, "ok"))
	if !v.Keep || v.Policy != "floor" || v.Priority != PrioFloor {
		t.Fatalf("ok trace verdict %+v, want floor keep", v)
	}
	v = c.Sample(traceWith(2, 100, "engine-fault"))
	if !v.Keep || v.Policy != "error" || v.Priority != PrioError {
		t.Fatalf("error trace verdict %+v, want error keep", v)
	}
	// An empty chain (or all-drop verdicts) reports policy "none".
	v = NewChain().Sample(traceWith(3, 100, "ok"))
	if v.Keep || v.Policy != "none" {
		t.Fatalf("empty chain verdict %+v", v)
	}
}

func TestDefaultChainShape(t *testing.T) {
	c := Default(7)
	// Errors always clear the rate limit and the floor.
	for i := 0; i < 500; i++ {
		v := c.Sample(traceWith(uint64(1000+i), 100, "engine-fault"))
		if !v.Keep || v.Policy != "error" {
			t.Fatalf("error trace %d verdict %+v", i, v)
		}
	}
	// Healthy traffic is kept by rate/floor, not error.
	v := c.Sample(traceWith(1, 100, "ok"))
	if v.Keep && v.Policy == "error" {
		t.Fatalf("healthy trace attributed to error policy: %+v", v)
	}
}

func TestChainIsDeterministic(t *testing.T) {
	run := func() []telemetry.SampleVerdict {
		c := Default(99)
		var out []telemetry.SampleVerdict
		for id := uint64(1); id <= 300; id++ {
			dur := int64(10 + id%7*25)
			outcome := "ok"
			if id%37 == 0 {
				outcome = "overload"
			}
			spans := []string{"admission", "cache_read"}
			if id%53 == 0 {
				spans = append(spans, "record")
			}
			out = append(out, c.Sample(traceWith(id, dur, outcome, spans...)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
