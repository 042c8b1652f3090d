// Package telemetry is the service-layer twin of internal/obs: where
// obs explains what the simulated core did to a µop, telemetry explains
// what heliosd did to a request. A Tracer hands out per-request Traces;
// code on the request path opens named Spans (admission, cache_read,
// record, replay, cache_write, manifest) carrying string
// attributes, and the tracer aggregates span durations into latency
// Histograms plus bookkeeping counters that prove the span contract
// (every started span ends exactly once).
//
// The package follows the same two disciplines as internal/obs:
//
//   - Zero cost when disabled. A nil *Tracer, nil *Trace and nil *Span
//     are fully usable no-ops: every exported method starts with a
//     concrete nil-pointer check and returns before touching anything
//     that could allocate. The disabled path is pinned at zero
//     allocations by TestDisabledPathNoAllocs (and end to end by
//     serve's TestServeTelemetryOffNoAllocs), and proven over the whole
//     static call closure by heliosvet's hotalloc analyzer via the
//     //helios:hotpath roots below.
//
//   - Determinism quarantine. Spans measure wall-clock time, which is
//     nondeterministic by nature; their output (Chrome trace JSON,
//     OpenMetrics exposition) must therefore never be spliced into a
//     deterministic surface such as `experiments -metrics` or a
//     manifest's stats block. Exports live in their own
//     files/endpoints, exactly like core.Metrics.WallRows vs Rows.
package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Tracer.
type Options struct {
	// Clock supplies timestamps; nil means time.Now. Tests inject a
	// deterministic clock so span math is byte-checkable.
	Clock func() time.Time
	// Ring is how many finished traces the tracer retains for export
	// (/tracez, TraceDir); below 1 means DefaultRing.
	Ring int
	// Sampler decides at Finish which traces the ring retains and with
	// what eviction priority. Nil keeps every finished trace at priority
	// zero under policy "all", a plain FIFO ring (ties evict
	// oldest-first) for testing the tracer on its own; heliosd always
	// installs sampling.Sampler.
	Sampler Sampler
}

// SampleVerdict is a sampler's tail decision for one finished trace.
type SampleVerdict struct {
	// Keep admits the trace to the retention ring.
	Keep bool
	// Policy names the deciding policy ("error", "slow", "floor", ...;
	// "all" when no sampler is installed, "none" when dropped) — the key
	// eviction accounting is split by.
	Policy string
	// Priority orders eviction: when the ring is full the lowest
	// priority entry is evicted first, oldest-first within a priority.
	Priority int
}

// Sampler makes tail-based retention decisions. Sample is called once
// per trace at Finish, after the trace is sealed, with its complete
// snapshot; implementations may keep internal state (rate limiters,
// latency percentile trackers) and must be safe for concurrent use.
// heliosd installs sampling.Sampler.
type Sampler interface {
	Sample(TraceInfo) SampleVerdict
}

// DefaultRing is the finished-trace retention when Options.Ring is 0.
const DefaultRing = 64

// Metrics is the tracer's telemetry-about-telemetry: cumulative
// counters proving the span lifecycle contract. SpansStarted must equal
// SpansEnded at quiescence and SpanDoubleEnds must stay zero — the
// chaos soak asserts exactly that after a hostile campaign.
type Metrics struct {
	TracesStarted  uint64
	TracesFinished uint64
	SpansStarted   uint64
	SpansEnded     uint64
	// SpanDoubleEnds counts End calls on already-ended spans (a bug in
	// the instrumented code; the duplicate End is ignored).
	SpanDoubleEnds uint64
	// SpansDropped counts Start calls against already-finished traces
	// (work that outlived its request);
	// dropped spans return nil and never count as started.
	SpansDropped uint64
	// RingEvicted counts finished traces pushed out of the retention
	// ring before being exported.
	RingEvicted uint64
	// SampledKept / SampledDropped split TracesFinished by the sampler's
	// tail verdict. Kept traces entered the ring (they may be evicted
	// later — RingEvicted); dropped traces still fed the histograms but
	// were never retained. Kept + Dropped == TracesFinished at
	// quiescence, and Kept - RingEvicted == len(ring).
	SampledKept    uint64
	SampledDropped uint64
}

// Balance returns a non-nil error when the lifecycle contract is
// violated: a started span never ended, a span ended twice, or a
// started trace never finished. Safe on a nil tracer (always nil).
func (t *Tracer) Balance() error {
	if t == nil {
		return nil
	}
	m := t.Metrics()
	if m.SpansStarted != m.SpansEnded {
		return fmt.Errorf("telemetry: span imbalance: %d started, %d ended", m.SpansStarted, m.SpansEnded)
	}
	if m.SpanDoubleEnds != 0 {
		return fmt.Errorf("telemetry: %d spans ended more than once", m.SpanDoubleEnds)
	}
	if m.TracesStarted != m.TracesFinished {
		return fmt.Errorf("telemetry: trace imbalance: %d started, %d finished", m.TracesStarted, m.TracesFinished)
	}
	if m.SampledKept+m.SampledDropped != m.TracesFinished {
		return fmt.Errorf("telemetry: sampling imbalance: %d kept + %d dropped != %d finished",
			m.SampledKept, m.SampledDropped, m.TracesFinished)
	}
	return nil
}

// Attr is one span attribute. A small slice of Attrs replaces a map so
// the enabled path stays cheap and export order stays deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer is the process-wide telemetry hub. The zero *Tracer (nil) is
// the disabled state; all methods are nil-safe no-ops.
type Tracer struct {
	clock func() time.Time
	epoch time.Time

	// Lifecycle counters are atomics so span hooks never take two
	// locks; the mu below guards only the ring and histograms.
	m struct {
		tracesStarted  atomic.Uint64
		tracesFinished atomic.Uint64
		spansStarted   atomic.Uint64
		spansEnded     atomic.Uint64
		spanDoubleEnds atomic.Uint64
		spansDropped   atomic.Uint64
		ringEvicted    atomic.Uint64
		sampledKept    atomic.Uint64
		sampledDropped atomic.Uint64
	}

	sampler Sampler

	mu        sync.Mutex
	nextID    uint64
	ring      []retainedTrace // kept traces, insertion order (seq ascending)
	ringSeq   uint64
	ringCap   int
	keptBy    map[string]uint64     // deciding policy → kept count
	evictedBy map[string]uint64     // evicted trace's policy → evictions
	hist      map[string]*Histogram // span name → duration µs, exemplars from kept traces
}

// retainedTrace is one ring entry: the trace plus the verdict that
// admitted it. Eviction removes the entry with the lowest priority,
// oldest (lowest seq) within a priority — boring traces go first.
type retainedTrace struct {
	tr     *Trace
	prio   int
	policy string
	seq    uint64
}

// New builds an enabled Tracer. A nil *Tracer is the disabled form —
// there is deliberately no "enabled" flag to check at call sites.
func New(o Options) *Tracer {
	t := &Tracer{
		clock:     o.Clock,
		ringCap:   o.Ring,
		sampler:   o.Sampler,
		keptBy:    make(map[string]uint64),
		evictedBy: make(map[string]uint64),
		hist:      make(map[string]*Histogram),
	}
	if t.clock == nil {
		t.clock = time.Now
	}
	if t.ringCap < 1 {
		t.ringCap = DefaultRing
	}
	t.epoch = t.clock()
	return t
}

// Metrics snapshots the lifecycle counters. Safe on nil (zero value).
func (t *Tracer) Metrics() Metrics {
	if t == nil {
		return Metrics{}
	}
	return Metrics{
		TracesStarted:  t.m.tracesStarted.Load(),
		TracesFinished: t.m.tracesFinished.Load(),
		SpansStarted:   t.m.spansStarted.Load(),
		SpansEnded:     t.m.spansEnded.Load(),
		SpanDoubleEnds: t.m.spanDoubleEnds.Load(),
		SpansDropped:   t.m.spansDropped.Load(),
		RingEvicted:    t.m.ringEvicted.Load(),
		SampledKept:    t.m.sampledKept.Load(),
		SampledDropped: t.m.sampledDropped.Load(),
	}
}

// Histograms snapshots the per-span-name duration histograms
// (microseconds) with their exemplars, in sorted-name order for
// deterministic exposition. Only kept traces feed the exemplars; a kept
// trace may since have left the ring, so exposition filters them with
// Histogram.KeepExemplars(t.Retained). Safe on nil (empty).
func (t *Tracer) Histograms() []NamedHistogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NamedHistogram, 0, len(t.hist))
	for name, h := range t.hist {
		out = append(out, NamedHistogram{Name: name, Hist: *h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedHistogram pairs a span name with a value copy of its duration
// histogram.
type NamedHistogram struct {
	Name string
	Hist Histogram
}

// Trace is one request's span collection. A nil *Trace is the disabled
// form and all methods no-op.
type Trace struct {
	t     *Tracer
	id    uint64
	name  string
	start time.Time

	mu      sync.Mutex
	attrs   []Attr
	spans   []*Span
	end     time.Time
	done    bool
	verdict SampleVerdict
	decided bool
}

// Span is one timed region within a trace. A nil *Span no-ops.
type Span struct {
	tr    *Trace
	name  string
	lane  int
	start time.Time
	end   time.Time
	ended bool
	attrs []Attr
}

// StartTrace opens a new trace. The returned trace must be closed with
// Finish exactly once; spans started on it after Finish are dropped.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	return t.startTrace(name)
}

//helios:hotalloc-ok enabled path only, behind StartTrace's nil check; disabled path pinned by TestDisabledPathNoAllocs
func (t *Tracer) startTrace(name string) *Trace {
	t.m.tracesStarted.Add(1)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Trace{t: t, id: id, name: name, start: t.clock()}
}

// ID returns the trace's tracer-unique id (0 for nil).
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Verdict returns the sampler's tail decision for this trace. The
// second result is false until Finish has run (and always on nil) —
// the flight recorder reads it right after finishTrace, so the
// decision is stamped before retire returns.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (tr *Trace) Verdict() (SampleVerdict, bool) {
	if tr == nil {
		return SampleVerdict{}, false
	}
	return tr.verdictSnapshot()
}

//helios:hotalloc-ok enabled path only, behind Verdict's nil check
func (tr *Trace) verdictSnapshot() (SampleVerdict, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.verdict, tr.decided
}

// SetAttr attaches a key/value attribute to the trace itself.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.setAttr(key, value)
}

//helios:hotalloc-ok enabled path only, behind SetAttr's nil check
func (tr *Trace) setAttr(key, value string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.attrs = append(tr.attrs, Attr{Key: key, Value: value})
}

// Start opens a span on lane 0, the request's own sequential timeline.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (tr *Trace) Start(name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.startSpan(name, 0)
}

//helios:hotalloc-ok enabled path only, behind the nil checks of Start and StartSpan
func (tr *Trace) startSpan(name string, lane int) *Span {
	now := tr.t.clock()
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		tr.t.m.spansDropped.Add(1)
		return nil
	}
	sp := &Span{tr: tr, name: name, lane: lane, start: now}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	tr.t.m.spansStarted.Add(1)
	return sp
}

// SetAttr attaches a string attribute to the span.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.setAttr(key, value)
}

// SetInt attaches an integer attribute; the formatting happens only on
// the enabled path, behind the nil check.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.setInt(key, v)
}

//helios:hotalloc-ok enabled path only, behind SetInt's nil check; the int formats only when a span exists
func (sp *Span) setInt(key string, v int64) {
	sp.setAttr(key, strconv.FormatInt(v, 10))
}

// SetBool attaches a boolean attribute.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	if v {
		sp.setAttr(key, "true")
	} else {
		sp.setAttr(key, "false")
	}
}

//helios:hotalloc-ok enabled path only, behind the span nil checks
func (sp *Span) setAttr(key, value string) {
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
}

// End closes the span. Ending twice is counted (SpanDoubleEnds) and
// otherwise ignored; the first End's timestamp wins.
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.endSpan()
}

//helios:hotalloc-ok enabled path only, behind End's nil check
func (sp *Span) endSpan() {
	now := sp.tr.t.clock()
	sp.tr.mu.Lock()
	if sp.ended {
		sp.tr.mu.Unlock()
		sp.tr.t.m.spanDoubleEnds.Add(1)
		return
	}
	sp.ended = true
	sp.end = now
	sp.tr.mu.Unlock()
	sp.tr.t.m.spansEnded.Add(1)
}

// Finish closes the trace: the trace's end time is stamped, span
// durations are folded into the tracer's histograms, and the sampler
// decides whether the trace joins the retention ring. Finishing twice
// is a no-op. Spans still open at Finish stay
// open — Balance exposes the leak — and export clamps their duration
// to the trace end (as it does for an End that races past Finish).
//
//helios:hotpath telemetry-disabled hook: a nil receiver must return without allocating
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.finish()
}

//helios:hotalloc-ok enabled path only, behind Finish's nil check
func (tr *Trace) finish() {
	now := tr.t.clock()
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.end = now
	tr.mu.Unlock()
	tr.t.m.tracesFinished.Add(1)
	tr.t.retire(tr)
}

// retire folds a just-finished trace into the tracer-level aggregates:
// the sampler's tail verdict is computed (and stamped on the trace for
// the flight recorder), and span durations always feed the histograms.
// Only kept traces become exemplars and join the ring, evicting the
// lowest-priority entry first when full.
func (t *Tracer) retire(tr *Trace) {
	info := tr.Snapshot()
	verdict := SampleVerdict{Keep: true, Policy: "all"}
	if t.sampler != nil {
		verdict = t.sampler.Sample(info)
	}
	tr.mu.Lock()
	tr.verdict = verdict
	tr.decided = true
	tr.mu.Unlock()
	var exemplarID uint64
	if verdict.Keep {
		exemplarID = info.ID
	}
	nowUS := t.clock().UnixMicro()
	t.mu.Lock()
	for i := range info.Spans {
		t.observeLocked(info.Spans[i].Name, uint64(info.Spans[i].DurUS), exemplarID, nowUS)
	}
	t.observeLocked(info.Name, uint64(info.DurUS), exemplarID, nowUS)
	if verdict.Keep {
		t.m.sampledKept.Add(1)
		t.keptBy[verdict.Policy]++
		if len(t.ring) >= t.ringCap {
			t.evictLocked()
		}
		t.ringSeq++
		t.ring = append(t.ring, retainedTrace{tr: tr, prio: verdict.Priority, policy: verdict.Policy, seq: t.ringSeq})
	} else {
		t.m.sampledDropped.Add(1)
	}
	t.mu.Unlock()
}

// observeLocked folds one duration into name's histogram, with
// traceID as its exemplar (0 for none). Caller holds t.mu.
func (t *Tracer) observeLocked(name string, us, traceID uint64, nowUS int64) {
	h := t.hist[name]
	if h == nil {
		h = &Histogram{}
		t.hist[name] = h
	}
	h.Observe(us, traceID, nowUS)
}

// evictLocked removes the ring entry with the lowest priority (oldest
// within a priority) and accounts the eviction against the policy that
// had admitted it. Caller holds t.mu and guarantees the ring is
// non-empty.
func (t *Tracer) evictLocked() {
	victim := 0
	for i := 1; i < len(t.ring); i++ {
		v, c := t.ring[victim], t.ring[i]
		if c.prio < v.prio || (c.prio == v.prio && c.seq < v.seq) {
			victim = i
		}
	}
	t.evictedBy[t.ring[victim].policy]++
	n := copy(t.ring[victim:], t.ring[victim+1:])
	t.ring = t.ring[:victim+n]
	t.m.ringEvicted.Add(1)
}

// Finished snapshots the retention ring, oldest trace first. Safe on
// nil (empty).
func (t *Tracer) Finished() []TraceInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring := make([]*Trace, 0, len(t.ring))
	for _, rt := range t.ring {
		ring = append(ring, rt.tr)
	}
	t.mu.Unlock()
	out := make([]TraceInfo, 0, len(ring))
	for _, tr := range ring {
		out = append(out, tr.Snapshot())
	}
	return out
}

// Retained reports whether trace id is currently in the retention ring
// — the exposition-time filter that keeps every emitted exemplar
// resolvable via /tracez. Safe on nil (false).
func (t *Tracer) Retained(id uint64) bool {
	if t == nil || id == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rt := range t.ring {
		if rt.tr.id == id {
			return true
		}
	}
	return false
}

// Find returns the retained trace with the given id, if any. Safe on
// nil (miss).
func (t *Tracer) Find(id uint64) (TraceInfo, bool) {
	if t == nil {
		return TraceInfo{}, false
	}
	t.mu.Lock()
	var tr *Trace
	for _, rt := range t.ring {
		if rt.tr.id == id {
			tr = rt.tr
			break
		}
	}
	t.mu.Unlock()
	if tr == nil {
		return TraceInfo{}, false
	}
	return tr.Snapshot(), true
}

// PolicyCount is one (policy, count) accounting row.
type PolicyCount struct {
	Policy string
	Count  uint64
}

// SamplingStats is the per-policy split of the sampler's verdicts:
// KeptByPolicy counts ring admissions by deciding policy, and
// EvictedByPolicy counts evictions by the evicted trace's admitting
// policy — together with Metrics they close the retention ledger
// (kept − evicted == retained). Both splits are sorted by policy name
// for deterministic exposition.
type SamplingStats struct {
	KeptByPolicy    []PolicyCount
	EvictedByPolicy []PolicyCount
	Retained        int
}

// Sampling snapshots the per-policy accounting. Safe on nil (zero).
func (t *Tracer) Sampling() SamplingStats {
	if t == nil {
		return SamplingStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return SamplingStats{
		KeptByPolicy:    sortedCounts(t.keptBy),
		EvictedByPolicy: sortedCounts(t.evictedBy),
		Retained:        len(t.ring),
	}
}

func sortedCounts(m map[string]uint64) []PolicyCount {
	out := make([]PolicyCount, 0, len(m))
	for k, v := range m {
		out = append(out, PolicyCount{Policy: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}

// ctxKey carries a *Trace through a context. The zero-size key boxes to
// runtime.zerobase, so context lookups stay allocation-free.
type ctxKey struct{}

// WithTrace returns a context carrying tr. A nil trace returns ctx
// unchanged, so the disabled path threads no value and pays nothing.
//
//helios:hotpath telemetry-disabled hook: a nil trace must return ctx unchanged without allocating
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	//helios:hotalloc-ok enabled path only, behind the nil check; WithValue allocates one context node per enabled request
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. The nil return
// composes with every other nil-safe method, so call sites never
// branch on enablement.
//
//helios:hotpath must stay allocation-free even on the miss path (zero-size key, no boxing of the result)
func FromContext(ctx context.Context) *Trace {
	//helios:hotalloc-ok ctxKey{} is zero-size (boxes to runtime.zerobase) and Context.Value lookups do not allocate; pinned by TestDisabledPathNoAllocs
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// laneKey carries the lane StartSpan opens spans on. Like ctxKey it is
// zero-size, so lookups stay allocation-free.
type laneKey struct{}

// WithLane returns a context whose StartSpan calls open spans on lane
// (Chrome trace "tid"). Lane 0 is the request timeline; core.RunCells
// gives each worker lane 1+worker, so parallel suites render as a
// per-worker utilization timeline and every span a cell opens nests
// under that cell. Without a trace in ctx it returns ctx unchanged, so
// the disabled path threads no value and pays nothing.
//
//helios:hotpath telemetry-disabled hook: with no trace, ctx must come back unchanged without allocating
func WithLane(ctx context.Context, lane int) context.Context {
	if FromContext(ctx) == nil {
		return ctx
	}
	//helios:hotalloc-ok enabled path only, behind the nil check; one context node per scheduler worker
	return context.WithValue(ctx, laneKey{}, lane)
}

// StartSpan opens a span on the trace ctx carries, on the lane WithLane
// set — lane 0, the request's own timeline, when none was set. Without
// a trace it returns a nil span.
//
//helios:hotpath telemetry-disabled hook: with no trace it must return without allocating
func StartSpan(ctx context.Context, name string) *Span {
	tr := FromContext(ctx)
	if tr == nil {
		return nil
	}
	//helios:hotalloc-ok laneKey{} is zero-size and Context.Value lookups do not allocate
	lane, _ := ctx.Value(laneKey{}).(int)
	return tr.startSpan(name, lane)
}
