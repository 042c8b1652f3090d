package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesP99WithoutTenBeyond(t *testing.T) {
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, true (ten samples beyond)", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples was allowed; only nine lie beyond it")
	}
	if _, ok := percentile(seq(50), 99); ok {
		t.Error("p99 of 50 samples was allowed")
	}
	// The tail falls back to the highest percentile the rule allows.
	v, p := tail(seq(200), 99)
	if p != 95 || v != 190 {
		t.Errorf("tail of 200 samples = p%d %v; want p95 190", p, v)
	}
}

func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	timings := openLoop(context.Background(), due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	// Request 0 holds the only connection for the stall; every request
	// due during it waits, and its latency counts from when it was due.
	for i := 1; i < len(due); i++ {
		if got, want := timings[i].Latency(), stall-due[i]; got < want {
			t.Errorf("request %d latency %v, want ≥ %v (the stall from its due time)", i, got, want)
		}
		if timings[i].Lag() > stall/2 {
			t.Errorf("request %d: generator lag %v; the generator itself must not stall", i, timings[i].Lag())
		}
	}
	// A closed loop would have timed request 3 from its send, hiding the
	// wait; from its due time it waited at least 50ms.
	if timings[3].Latency() < 50*time.Millisecond {
		t.Errorf("request 3 latency %v hides the stall", timings[3].Latency())
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "a", Start: ms(30), End: ms(50)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Layer: "b", Start: ms(90), End: ms(120)}, // clipped to the parent
		{ID: 5, Parent: 2, Layer: "c", Start: ms(15), End: ms(25)},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt
	}
	want := map[string]time.Duration{
		"root": 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond, // children cover 10–50 and 90–100
		"a":    (30-10)*time.Millisecond + 20*time.Millisecond,                   // span 2 minus child 5, plus span 3
		"b":    30 * time.Millisecond,
		"c":    10 * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer].Self != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer].Self, w)
		}
	}
	if got["a"].Busy != 50*time.Millisecond || got["a"].Spans != 2 {
		t.Errorf("layer a: busy %v over %d spans, want 50ms over 2", got["a"].Busy, got["a"].Spans)
	}
}

// smallReplay runs one short real replay, observed, so the digest tests
// work on statistics and streams the simulator actually produced.
func smallReplay(t *testing.T) (*ooo.Stats, []byte) {
	t.Helper()
	w, _ := workloads.ByName("bitcount")
	rec, err := w.Record(3000)
	if err != nil {
		t.Fatal(err)
	}
	var pv strings.Builder
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.MaxUops = rec.MaxInsts
	cfg.Obs = &obs.Observer{PipeView: &pv}
	st, err := ooo.New(cfg, rec.Replay()).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, []byte(pv.String())
}

func TestDigestCatchesPerturbedStatistic(t *testing.T) {
	st, _ := smallReplay(t)
	want := map[string]string{"bitcount/Helios": statsDigest(st)}
	if bad := mismatches(map[string]string{"bitcount/Helios": statsDigest(st)}, want); len(bad) != 0 {
		t.Fatalf("identical statistics reported as mismatched: %v", bad)
	}
	perturbed := *st
	perturbed.Cycles++
	if bad := mismatches(map[string]string{"bitcount/Helios": statsDigest(&perturbed)}, want); len(bad) != 1 {
		t.Errorf("a statistic off by one cycle passed the gate")
	}
	perturbed = *st
	perturbed.LoadToUseHist.Observe(1)
	if statsDigest(&perturbed) == want["bitcount/Helios"] {
		t.Errorf("a perturbed latency histogram passed the gate")
	}
	if bad := mismatches(map[string]string{}, want); len(bad) != 1 {
		t.Errorf("a missing cell passed the gate")
	}
}

func TestDigestCatchesPerturbedStreamByte(t *testing.T) {
	_, stream := smallReplay(t)
	digest := func(b []byte) observedCell {
		c := newHashCounter()
		c.Write(b)
		return observedCell{PipeView: c.stream()}
	}
	want := digest(stream)
	if digest(stream) != want {
		t.Fatal("identical stream reported as different")
	}
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 1
	if digest(flipped) == want {
		t.Error("a stream with one flipped bit passed the gate")
	}
	if digest(stream[:len(stream)-1]).PipeView.Bytes == want.PipeView.Bytes {
		t.Error("a truncated stream kept its byte count")
	}
}

func TestMixIsSeededAndClassesHold(t *testing.T) {
	a, b := newMixGen(7), newMixGen(7)
	counts := map[string]int{}
	keys := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ra, rb := a.next(), b.next()
		if string(ra.body) != string(rb.body) {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
		counts[ra.class]++
		if ra.class != "hit" {
			if keys[ra.key()] {
				t.Fatalf("request %d (%s) repeats key %s", i, ra.class, ra.key())
			}
			keys[ra.key()] = true
		}
	}
	if counts["hit"] != 800 || counts["miss"] != 170 || counts["cold"] != 30 {
		t.Errorf("class counts %v, want 800/170/30 per 1000", counts)
	}
	c, d := newMixGen(7), newMixGen(8)
	same := 0
	for i := 0; i < 100; i++ {
		if string(c.next().body) == string(d.next().body) {
			same++
		}
	}
	if same == 100 {
		t.Error("seeds 7 and 8 drew the same 100 requests")
	}
}
