// Package sampling implements tail-based trace retention policies for
// the telemetry tracer. A Chain of Policies is installed as
// telemetry.Options.Sampler; at every trace Finish each policy votes on
// the sealed TraceInfo and the highest-priority keeper wins, so the
// retention ring holds the interesting traces (errors, tail latency,
// rare spans) and evicts the boring ones (healthy cached hits) first.
//
// Two disciplines shape the package:
//
//   - Determinism under test. No policy reads the wall clock or global
//     rand: the probabilistic floor hashes the trace ID against an
//     injected seed, the token bucket advances on trace finish
//     timestamps (epoch-relative microseconds carried by the trace
//     itself), and the adaptive latency threshold is a pure function of
//     the duration histogram it has accumulated. Replaying the same
//     trace stream yields byte-identical verdicts — the chaos soak and
//     the unit tests depend on it.
//
//   - The tail is the decision point. Policies see the finished trace
//     (outcome attribute, spans, duration), not the request head, so
//     "keep every error" and "keep the p99 outlier" are exact, not
//     guesses. Head-style volume control (floor, rate limit) still
//     composes in — it just runs at the tail with complete information.
package sampling

import (
	"math"
	"sync"

	"helios/internal/stats"
	"helios/internal/telemetry"
)

// Eviction priorities, highest keeps longest. Spacing leaves room for
// deployment-specific policies in between.
const (
	// PrioFloor marks traces kept only by the probabilistic floor —
	// the first to be evicted.
	PrioFloor = 10
	// PrioRate marks traces kept by the rate-limited volume budget.
	PrioRate = 20
	// PrioSpan marks traces carrying a boosted rare span (record,
	// degrade).
	PrioSpan = 40
	// PrioSlow marks tail-latency outliers.
	PrioSlow = 60
	// PrioError marks error traces — never evicted while anything
	// lower-priority remains.
	PrioError = 100
)

// Policy is one composable retention rule. Decide votes keep/drop with
// an eviction priority; it runs at trace Finish and may carry internal
// state (Decide must be safe for concurrent use — Finish runs on
// request goroutines).
type Policy interface {
	Name() string
	Decide(ti telemetry.TraceInfo) (keep bool, priority int)
}

// Chain is an ordered policy set implementing telemetry.Sampler. Every
// policy sees every trace (so stateful policies learn from drops too);
// the verdict is the highest-priority keeper, ties going to the
// earliest policy in the chain.
type Chain struct {
	policies []Policy
}

// NewChain builds a chain. An empty chain drops everything except what
// no sampler at all would do — install nil instead of an empty chain to
// keep every trace.
func NewChain(policies ...Policy) *Chain {
	return &Chain{policies: policies}
}

// Sample implements telemetry.Sampler.
func (c *Chain) Sample(ti telemetry.TraceInfo) telemetry.SampleVerdict {
	verdict := telemetry.SampleVerdict{Policy: "none"}
	for _, p := range c.policies {
		keep, prio := p.Decide(ti)
		if keep && (!verdict.Keep || prio > verdict.Priority) {
			verdict = telemetry.SampleVerdict{Keep: true, Policy: p.Name(), Priority: prio}
		}
	}
	return verdict
}

// Default is the standard heliosd chain: keep all errors, keep
// tail-latency outliers above the adaptive p99, boost traces with rare
// record/degrade spans, admit a rate-limited volume budget of healthy
// traffic, and guarantee a deterministic 1% floor so even a quiet
// policy set retains a background sample. seed feeds the floor hash.
func Default(seed uint64) *Chain {
	return NewChain(
		Errors(),
		SlowTail(99, 64),
		SpanBoost(PrioSpan, "record", "degrade"),
		Limit(All(), 25, 50),
		Floor(0.01, seed),
	)
}

// errors keeps every trace whose outcome attribute is a failure kind
// (serve stamps "ok" on success, the typed ErrKind on failure, "panic"
// on a recovered panic) or that contains a span flagged err=true
// (core.Suite marks record and replay spans whose call failed).
type errorsPolicy struct{}

// Errors returns the always-keep-on-error policy (priority PrioError).
func Errors() Policy { return errorsPolicy{} }

func (errorsPolicy) Name() string { return "error" }

func (errorsPolicy) Decide(ti telemetry.TraceInfo) (bool, int) {
	for _, a := range ti.Attrs {
		if a.Key == "outcome" && a.Value != "ok" {
			return true, PrioError
		}
	}
	for _, sp := range ti.Spans {
		for _, a := range sp.Attrs {
			if a.Key == "err" && a.Value == "true" {
				return true, PrioError
			}
		}
	}
	return false, 0
}

// allPolicy keeps everything at priority zero — the identity element
// of the algebra, useful as the inner policy of a Limit.
type allPolicy struct{}

// All returns the keep-everything policy.
func All() Policy { return allPolicy{} }

func (allPolicy) Name() string { return "all" }

func (allPolicy) Decide(telemetry.TraceInfo) (bool, int) { return true, 0 }

// floorPolicy is the probabilistic floor: a deterministic hash of the
// trace ID against a seed keeps a fixed fraction of all traffic
// regardless of what the rest of the chain thinks.
type floorPolicy struct {
	seed      uint64
	threshold uint64 // keep when hash < threshold
}

// Floor returns a policy keeping ~rate (0..1) of traces at PrioFloor,
// decided by hashing the trace ID with seed — the same (seed, ID)
// always votes the same way, so tests and replays are exact.
func Floor(rate float64, seed uint64) Policy {
	if rate < 0 {
		rate = 0
	}
	var threshold uint64
	if rate >= 1 {
		threshold = math.MaxUint64
	} else {
		threshold = uint64(rate * float64(1<<63) * 2)
	}
	return &floorPolicy{seed: seed, threshold: threshold}
}

func (f *floorPolicy) Name() string { return "floor" }

func (f *floorPolicy) Decide(ti telemetry.TraceInfo) (bool, int) {
	if f.threshold == math.MaxUint64 {
		return true, PrioFloor
	}
	return splitmix64(f.seed^ti.ID) < f.threshold, PrioFloor
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — the same mixer
// chaos.RandomConfig idioms use; good avalanche, no allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// limitPolicy wraps an inner policy with a token bucket: inner keepers
// pass only while tokens remain. Time advances on the traces' own
// finish timestamps (epoch-relative microseconds), so the bucket
// refills deterministically from the trace stream instead of the wall
// clock.
type limitPolicy struct {
	inner  Policy
	perSec float64
	burst  float64

	mu     sync.Mutex
	tokens float64
	lastUS int64
	primed bool
}

// Limit returns a rate-limited version of inner: at most ~perSec
// keepers per second with the given burst, at PrioRate (or inner's
// priority if higher). Non-keepers of inner spend nothing.
func Limit(inner Policy, perSec float64, burst int) Policy {
	if burst < 1 {
		burst = 1
	}
	return &limitPolicy{inner: inner, perSec: perSec, burst: float64(burst), tokens: float64(burst)}
}

func (l *limitPolicy) Name() string { return "rate" }

func (l *limitPolicy) Decide(ti telemetry.TraceInfo) (bool, int) {
	keep, prio := l.inner.Decide(ti)
	if !keep {
		return false, 0
	}
	if prio < PrioRate {
		prio = PrioRate
	}
	nowUS := ti.StartUS + ti.DurUS
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.primed {
		l.primed = true
		l.lastUS = nowUS
	}
	if nowUS > l.lastUS {
		l.tokens += float64(nowUS-l.lastUS) / 1e6 * l.perSec
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.lastUS = nowUS
	}
	if l.tokens < 1 {
		return false, 0
	}
	l.tokens--
	return true, prio
}

// slowTailPolicy keeps traces slower than the target percentile of the
// request durations it has seen so far — an adaptive threshold that
// tracks the live distribution instead of a hard-coded latency SLO.
type slowTailPolicy struct {
	pct    int
	warmup uint64

	mu   sync.Mutex
	hist stats.Histogram
}

// SlowTail returns a policy keeping traces whose duration exceeds the
// pct-th percentile (1..100) of the durations observed so far, at
// PrioSlow. The comparison is strict — a uniform distribution keeps
// nothing, only genuine outliers clear the bar. The first warmup
// traces only feed the histogram — a threshold learned from two
// samples is noise, not a tail.
func SlowTail(pct int, warmup uint64) Policy {
	if pct < 1 {
		pct = 1
	}
	if pct > 100 {
		pct = 100
	}
	return &slowTailPolicy{pct: pct, warmup: warmup}
}

func (s *slowTailPolicy) Name() string { return "slow" }

func (s *slowTailPolicy) Decide(ti telemetry.TraceInfo) (bool, int) {
	dur := uint64(ti.DurUS)
	s.mu.Lock()
	defer s.mu.Unlock()
	warm := s.hist.Count >= s.warmup
	thr := s.hist.Percentile(s.pct)
	s.hist.Observe(dur)
	if !warm {
		return false, 0
	}
	return dur > thr, PrioSlow
}

// spanBoostPolicy keeps any trace containing one of the named spans —
// the hook for rare, load-bearing phases (an uncached record, a
// degraded replay) that a volume-based sampler would mostly miss.
type spanBoostPolicy struct {
	prio  int
	names map[string]bool
}

// SpanBoost returns a policy keeping traces that contain a span with
// one of the given names, at the given priority.
func SpanBoost(prio int, names ...string) Policy {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return &spanBoostPolicy{prio: prio, names: set}
}

func (s *spanBoostPolicy) Name() string { return "span" }

func (s *spanBoostPolicy) Decide(ti telemetry.TraceInfo) (bool, int) {
	for _, sp := range ti.Spans {
		if s.names[sp.Name] {
			return true, s.prio
		}
	}
	return false, 0
}
