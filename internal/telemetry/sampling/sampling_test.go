package sampling

import (
	"sync"
	"sync/atomic"
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

// drained returns a sampler whose token bucket is empty and never
// refills, so the rate rule stays silent and each other rule can be
// seen on its own.
func drained(seed uint64) *Sampler {
	s := New(seed, 0, 1)
	s.Sample(traceWith(0, 1, "ok"))
	return s
}

func TestErrorsPolicy(t *testing.T) {
	s := drained(1)
	if v := s.Sample(traceWith(1, 100, "ok")); v.Policy == "error" {
		t.Fatalf("ok trace kept as an error: %+v", v)
	}
	for _, outcome := range []string{"bad-request", "overload", "engine-fault", "panic", "deadline"} {
		v := s.Sample(traceWith(2, 100, outcome))
		if !v.Keep || v.Policy != "error" || v.Priority != PrioError {
			t.Fatalf("outcome %q: verdict %+v, want keep by error at PrioError", outcome, v)
		}
	}
	// A span flagged err=true (core.Suite's failed-replay marker)
	// keeps the trace even when the request-level outcome looks healthy.
	ti := traceWith(3, 100, "ok", "replay")
	ti.Spans[0].Attrs = []telemetry.Attr{{Key: "err", Value: "true"}}
	if v := s.Sample(ti); v.Policy != "error" {
		t.Fatalf("trace with an err=true span: verdict %+v, want error", v)
	}
}

// TestDefaultChainShape checks heliosd's Default sampler: errors clear
// its bucket long after it runs dry, and healthy traffic is never
// attributed to the error rule.
func TestDefaultChainShape(t *testing.T) {
	d := Default(7)
	for i := 0; i < 500; i++ {
		if v := d.Sample(traceWith(uint64(1000+i), 100, "engine-fault")); !v.Keep || v.Policy != "error" {
			t.Fatalf("error trace %d verdict %+v", i, v)
		}
	}
	if v := d.Sample(traceWith(1, 100, "ok")); v.Policy == "error" {
		t.Fatalf("healthy trace attributed to the error rule: %+v", v)
	}
}

func TestFloorDeterminismAndRate(t *testing.T) {
	p, q, other := drained(42), drained(42), drained(43)
	kept, differ := 0, 0
	for id := uint64(1); id <= 20000; id++ {
		v := p.Sample(traceWith(id, 100, "ok"))
		if v != q.Sample(traceWith(id, 100, "ok")) {
			t.Fatalf("id %d: same seed disagrees", id)
		}
		if v != other.Sample(traceWith(id, 100, "ok")) {
			differ++
		}
		if v.Keep {
			if v.Policy != "floor" || v.Priority != PrioFloor {
				t.Fatalf("id %d: verdict %+v, want floor at PrioFloor", id, v)
			}
			kept++
		}
	}
	// 1% ± 0.3% over 20k hashed IDs.
	if kept < 140 || kept > 260 {
		t.Fatalf("floor kept %d of 20000, want ~200", kept)
	}
	if differ == 0 {
		t.Fatal("seeds 42 and 43 keep the same traces: the seed does not feed the hash")
	}
}

func TestLimitTokenBucket(t *testing.T) {
	// 1 token per second, burst 2; trace finish timestamps drive refill.
	s := New(1, 1, 2)
	rate := func(id uint64, finishUS int64) bool {
		v := s.Sample(telemetry.TraceInfo{ID: id, StartUS: finishUS})
		if v.Policy == "rate" && v.Priority != PrioRate {
			t.Fatalf("rate keep at priority %d", v.Priority)
		}
		return v.Policy == "rate"
	}
	if !rate(1, 0) || !rate(2, 0) {
		t.Fatal("burst tokens not granted")
	}
	if rate(3, 0) {
		t.Fatal("kept beyond burst with no time passed")
	}
	// One second later one token has refilled.
	second := int64(time.Second / time.Microsecond)
	if !rate(4, second) {
		t.Fatal("refilled token not granted")
	}
	if rate(5, second) {
		t.Fatal("second keep from a single refilled token")
	}
}

func TestSlowTailAdaptiveThreshold(t *testing.T) {
	s := New(1, 0, 1)
	// Warmup: uniform fast traffic feeds the histogram, nothing is slow.
	for id := uint64(1); id <= slowWarmup; id++ {
		if v := s.Sample(traceWith(id, 10, "ok")); v.Policy == "slow" {
			t.Fatalf("trace %d kept as slow during warmup", id)
		}
	}
	// Post-warmup uniform traffic sits at the percentile, not above it.
	if v := s.Sample(traceWith(65, 10, "ok")); v.Policy == "slow" {
		t.Fatal("uniform-latency trace kept as slow")
	}
	if v := s.Sample(traceWith(66, 50_000, "ok")); !v.Keep || v.Policy != "slow" || v.Priority != PrioSlow {
		t.Fatalf("outlier: verdict %+v, want keep by slow at PrioSlow", v)
	}
	// The threshold adapts: after enough slow traffic, what was an
	// outlier becomes the norm and stops being kept.
	for id := uint64(67); id < 3500; id++ {
		s.Sample(traceWith(id, 50_000, "ok"))
	}
	if v := s.Sample(traceWith(4000, 50_000, "ok")); v.Policy == "slow" {
		t.Fatal("threshold did not adapt to the new normal")
	}
}

func TestSpanBoost(t *testing.T) {
	s := drained(1)
	if v := s.Sample(traceWith(1, 100, "ok", "admission", "cache_read")); v.Policy == "span" {
		t.Fatal("cached trace kept by the span rule")
	}
	if v := s.Sample(traceWith(2, 100, "ok", "admission", "record", "replay")); !v.Keep || v.Policy != "span" || v.Priority != PrioSpan {
		t.Fatalf("record trace: verdict %+v, want keep by span at PrioSpan", v)
	}
	if v := s.Sample(traceWith(3, 100, "ok", "degrade")); v.Policy != "span" {
		t.Fatalf("degrade trace: verdict %+v, want span", v)
	}
}

// TestHighestPriorityWins stacks the rules one by one on a warmed-up
// sampler with tokens to spare: each trace is claimed by the highest
// rule that wants it, and a trace no rule wants drops under "none".
func TestHighestPriorityWins(t *testing.T) {
	s := New(1, 0, 1000)
	for id := uint64(1); id <= slowWarmup; id++ {
		s.Sample(traceWith(id, 10, "ok"))
	}
	for _, tc := range []struct {
		ti   telemetry.TraceInfo
		want string
	}{
		{traceWith(100, 50_000, "engine-fault", "record"), "error"},
		{traceWith(101, 5_000_000, "ok", "record"), "slow"},
		{traceWith(102, 10, "ok", "record"), "span"},
		{traceWith(103, 10, "ok"), "rate"},
	} {
		if v := s.Sample(tc.ti); !v.Keep || v.Policy != tc.want {
			t.Errorf("trace %d: verdict %+v, want keep by %s", tc.ti.ID, v, tc.want)
		}
	}
	d := drained(1)
	for id := uint64(1); ; id++ {
		v := d.Sample(traceWith(id, 10, "ok"))
		if v.Keep {
			continue // the floor kept it
		}
		if v.Policy != "none" || v.Priority != 0 {
			t.Errorf("dropped trace verdict %+v, want policy none at priority 0", v)
		}
		break
	}
}

// TestConcurrentSampleSpendsEachTokenOnce: Finish runs on request
// goroutines, so Sample is called concurrently. With a non-refilling
// 8-token bucket and 800 traces at once, exactly 8 are kept by rate
// whatever the interleaving.
func TestConcurrentSampleSpendsEachTokenOnce(t *testing.T) {
	s := New(1, 0, 8)
	var rate atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ti := telemetry.TraceInfo{ID: uint64(g*100 + i + 1), DurUS: 10}
				if s.Sample(ti).Policy == "rate" {
					rate.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := rate.Load(); got != 8 {
		t.Fatalf("%d traces kept by rate, want the bucket's 8 tokens", got)
	}
}
