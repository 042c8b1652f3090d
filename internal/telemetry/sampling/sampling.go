// Package sampling is heliosd's tail sampler. A Sampler is installed as
// telemetry.Options.Sampler; at every trace Finish it runs five
// retention rules on the sealed TraceInfo and keeps the trace under the
// highest-priority rule that wants it, so the retention ring holds the
// interesting traces (errors, tail latency, rare spans) and evicts the
// boring ones (healthy cached hits) first. The rules, highest priority
// first:
//
//   - error: the outcome attribute is a failure kind, or a span is
//     flagged err=true.
//   - slow: the duration exceeds the adaptive p99 of every duration seen
//     so far, once 64 traces have warmed the histogram up.
//   - span: the trace holds a record or degrade span.
//   - rate: a token bucket admits a budget of traffic (25/s, burst 50 by
//     default).
//   - floor: a seeded hash of the trace ID keeps 1% of all traffic.
//
// Every rule sees every trace: the slow-tail histogram learns from
// traces another rule keeps, and the bucket spends a token on each
// trace while it holds one.
//
// Two disciplines shape the package:
//
//   - Determinism under test. No rule reads the wall clock or global
//     rand: the floor hashes the trace ID against an injected seed, the
//     token bucket advances on trace finish timestamps (epoch-relative
//     microseconds carried by the trace itself), and the latency
//     threshold is a pure function of the durations seen so far.
//     Replaying the same trace stream yields identical verdicts; the
//     golden test and the chaos soak depend on it.
//
//   - The tail is the decision point. Rules see the finished trace
//     (outcome attribute, spans, duration), not the request head, so
//     "keep every error" and "keep the p99 outlier" are exact, not
//     guesses. Volume control (rate, floor) still applies; it just runs
//     at the tail with complete information.
package sampling

import (
	"sync"

	"helios/internal/stats"
	"helios/internal/telemetry"
)

// Eviction priorities, highest keeps longest.
const (
	// PrioFloor marks traces kept only by the probabilistic floor — the
	// first to be evicted.
	PrioFloor = 10
	// PrioRate marks traces kept by the token bucket.
	PrioRate = 20
	// PrioSpan marks traces carrying a rare span (record, degrade).
	PrioSpan = 40
	// PrioSlow marks tail-latency outliers.
	PrioSlow = 60
	// PrioError marks error traces — never evicted while anything
	// lower-priority remains.
	PrioError = 100
)

const (
	// slowPct is the percentile a trace must exceed to count as slow.
	// The comparison is strict, so a uniform distribution keeps nothing.
	slowPct = 99
	// slowWarmup traces only feed the histogram: a threshold learned
	// from two samples is noise, not a tail.
	slowWarmup = 64
)

// Sampler implements telemetry.Sampler with the five rules above. It is
// safe for concurrent use: Finish runs on request goroutines.
type Sampler struct {
	seed   uint64
	floor  uint64 // the floor keeps a trace when its ID hash is below this
	perSec float64
	burst  float64

	mu     sync.Mutex
	hist   stats.Histogram // every trace's duration, µs
	tokens float64
	lastUS int64
	primed bool
}

// New returns a sampler whose token bucket refills at perSec and holds
// at most burst tokens (at least 1), starting full. seed feeds the
// floor hash: the same (seed, trace ID) always votes the same way.
func New(seed uint64, perSec float64, burst int) *Sampler {
	if burst < 1 {
		burst = 1
	}
	floorRate := 0.01
	return &Sampler{
		seed:   seed,
		floor:  uint64(floorRate * float64(1<<63) * 2),
		perSec: perSec,
		burst:  float64(burst),
		tokens: float64(burst),
	}
}

// Default is heliosd's sampler: a 25/s budget of healthy traffic with a
// burst of 50.
func Default(seed uint64) *Sampler { return New(seed, 25, 50) }

// Sample implements telemetry.Sampler: it runs every rule and returns
// the highest-priority keeper, or a drop under policy "none".
func (s *Sampler) Sample(ti telemetry.TraceInfo) telemetry.SampleVerdict {
	slow, rate := s.observe(ti)
	switch {
	case failed(ti):
		return kept("error", PrioError)
	case slow:
		return kept("slow", PrioSlow)
	case hasRareSpan(ti):
		return kept("span", PrioSpan)
	case rate:
		return kept("rate", PrioRate)
	case splitmix64(s.seed^ti.ID) < s.floor:
		return kept("floor", PrioFloor)
	}
	return telemetry.SampleVerdict{Policy: "none"}
}

func kept(policy string, prio int) telemetry.SampleVerdict {
	return telemetry.SampleVerdict{Keep: true, Policy: policy, Priority: prio}
}

// observe feeds the trace to the two stateful rules and returns their
// votes: slow when its duration clears the warmed-up p99 of the
// durations before it, rate when the bucket had a token to spend. The
// bucket refills on the trace's finish timestamp, never the wall clock.
func (s *Sampler) observe(ti telemetry.TraceInfo) (slow, rate bool) {
	dur := uint64(ti.DurUS)
	nowUS := ti.StartUS + ti.DurUS
	s.mu.Lock()
	defer s.mu.Unlock()
	slow = s.hist.Count >= slowWarmup && dur > s.hist.Percentile(slowPct)
	s.hist.Observe(dur)
	if !s.primed {
		s.primed = true
		s.lastUS = nowUS
	}
	if nowUS > s.lastUS {
		s.tokens = min(s.burst, s.tokens+float64(nowUS-s.lastUS)/1e6*s.perSec)
		s.lastUS = nowUS
	}
	if s.tokens < 1 {
		return slow, false
	}
	s.tokens--
	return slow, true
}

// failed reports a failure outcome (serve stamps "ok" on success, the
// typed ErrKind on failure, "panic" on a recovered panic) or a span
// flagged err=true (core.Suite marks record and replay spans whose call
// failed).
func failed(ti telemetry.TraceInfo) bool {
	for _, a := range ti.Attrs {
		if a.Key == "outcome" && a.Value != "ok" {
			return true
		}
	}
	for _, sp := range ti.Spans {
		for _, a := range sp.Attrs {
			if a.Key == "err" && a.Value == "true" {
				return true
			}
		}
	}
	return false
}

// hasRareSpan reports an uncached record or a degraded replay: rare,
// load-bearing phases a volume budget would mostly miss.
func hasRareSpan(ti telemetry.TraceInfo) bool {
	for _, sp := range ti.Spans {
		if sp.Name == "record" || sp.Name == "degrade" {
			return true
		}
	}
	return false
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — the same mixer
// chaos.RandomConfig idioms use; good avalanche, no allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
