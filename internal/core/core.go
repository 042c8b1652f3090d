// Package core is the library facade: it wires workloads, the functional
// emulator and the out-of-order pipeline together, runs the paper's six
// fusion configurations, and caches results for the experiment drivers.
//
// Simulation is two-phase, mirroring the paper's methodology: the
// functional emulator produces the committed-path stream once per
// workload (a trace.Recording), and the cycle-level model replays it per
// configuration. Suite performs the record-once/replay-many bookkeeping
// and deduplicates concurrent requests for the same key.
//
// Every entry point takes a context.Context: cancellation and deadlines
// are honored mid-run (checked inside the pipeline's cycle loop and the
// recording emulation), and a context failure is never cached. When a
// cached recording fails to replay (e.g. a corrupt trace file was seeded
// via SeedRecording), Suite degrades gracefully: it re-emulates the
// workload live exactly once, replaces the recording, and retries — so
// one bad trace costs one extra emulation, not the whole suite run.
//
// Typical use:
//
//	w, _ := workloads.ByName("crc32")
//	res, err := core.Run(ctx, w, fusion.ModeHelios, 0)
//	fmt.Println(res.Stats.IPC())
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/telemetry"
	"helios/internal/trace"
	"helios/internal/workloads"
)

// engineSchema names the cycle-level engine's semantic generation. Bump
// it when the model changes in a way that makes previously computed
// results incomparable (new stall accounting, different fusion rules,
// ...): every result cache — the in-process Suite cache and any
// content-addressed store built on EngineVersion — keys on it, so a
// schema bump invalidates stale results instead of serving them.
const engineSchema = "helios-engine/1"

// engineVersion is computed once per process: the semantic schema plus
// the VCS identity of the binary, when the build embedded one.
var engineVersion = func() string {
	v := engineSchema
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		v += "+" + rev
		if dirty {
			v += ".dirty"
		}
	}
	return v
}()

// EngineVersion identifies the simulation engine this process runs:
// the semantic schema plus the build's VCS revision. It is folded into
// every Suite cache key and is the engine component of heliosd's
// content-addressed result keys, so results produced by a different
// engine can never be served as current.
func EngineVersion() string { return engineVersion }

// Result is the outcome of simulating one workload under one fusion mode.
type Result struct {
	Workload string
	Mode     fusion.Mode
	Stats    ooo.Stats
}

// Run simulates workload w under the given fusion mode for maxInsts
// architectural instructions (0 = the workload's own budget).
func Run(ctx context.Context, w workloads.Workload, mode fusion.Mode, maxInsts uint64) (*Result, error) {
	cfg := ooo.DefaultConfig(mode)
	return RunConfig(ctx, w, cfg, maxInsts)
}

// RunConfig simulates with an explicit machine configuration, emulating
// the workload live (single-run callers do not pay for a recording).
func RunConfig(ctx context.Context, w workloads.Workload, cfg ooo.Config, maxInsts uint64) (*Result, error) {
	if maxInsts == 0 {
		maxInsts = w.MaxInsts
	}
	src, err := w.Trace(maxInsts)
	if err != nil {
		return nil, err
	}
	return RunSource(ctx, w.Name, cfg, src, maxInsts)
}

// RunSource simulates an explicit committed-path source — typically a
// trace.Recording replay cursor or a loaded trace file — under cfg.
// maxInsts bounds committed instructions (0 = drain the source). A cfg
// that ooo.Config.Check rejects is an error, not a panic in ooo.New. The
// context is polled inside the cycle loop; on cancellation the returned
// error unwraps to ctx.Err().
func RunSource(ctx context.Context, name string, cfg ooo.Config, src trace.Source, maxInsts uint64) (*Result, error) {
	if err := cfg.Check(); err != nil {
		return nil, fmt.Errorf("core: %s/%v: %w", name, cfg.Mode, err)
	}
	cfg.MaxUops = maxInsts
	p := ooo.New(cfg, src)
	st, err := p.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%v: %w", name, cfg.Mode, err)
	}
	return &Result{Workload: name, Mode: cfg.Mode, Stats: *st}, nil
}

// isCtxErr reports whether err is a cancellation/deadline failure —
// caller-induced, so never cached and never "repaired".
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Metrics is a snapshot of the suite's record/replay observability
// counters: how much functional emulation was spent versus how often its
// product was reused, and where the wall time went.
type Metrics struct {
	TraceMisses  uint64 // recordings materialized (functional emulations)
	TraceHits    uint64 // runs served from an already-cached recording
	Replays      uint64 // replay cursors handed to the pipeline
	PipelineRuns uint64 // cycle-level simulations performed
	DedupedRuns  uint64 // Get calls that waited on an identical in-flight run

	// LiveFallbacks counts recordings re-emulated live because a cached
	// recording failed to replay (graceful degradation; at most one per
	// workload×budget key).
	LiveFallbacks uint64

	EmuTime time.Duration // wall time in functional emulation (recording)
	SimTime time.Duration // wall time in cycle-level simulation

	// FanoutWall is the elapsed wall time of the latest RunCells fan-out;
	// CellWalls holds its per-cell wall times in scheduling (input) order.
	// With workers > 1 the cell walls sum to more than FanoutWall — the
	// ratio is the scheduler's realized speedup.
	FanoutWall time.Duration
	CellWalls  []CellWall
}

// Rows returns the deterministic counters as label/value pairs — the
// byte-stable half of the metrics surface, safe to diff across runs.
func (m Metrics) Rows() [][2]string {
	return [][2]string{
		{"trace misses (functional emulations)", fmt.Sprint(m.TraceMisses)},
		{"trace hits (recording reused)", fmt.Sprint(m.TraceHits)},
		{"replays", fmt.Sprint(m.Replays)},
		{"pipeline runs", fmt.Sprint(m.PipelineRuns)},
		{"deduped runs", fmt.Sprint(m.DedupedRuns)},
		{"live fallbacks", fmt.Sprint(m.LiveFallbacks)},
	}
}

// WallRows returns the wall-time measurements as label/value pairs:
// phase totals, then — when a scheduler fan-out ran — the latest
// fan-out's elapsed time, the serial-equivalent sum of its per-cell
// walls, the realized speedup, and each cell's wall in scheduling order. Values
// are nondeterministic by nature; the row set and order are not.
func (m Metrics) WallRows() [][2]string {
	rows := [][2]string{
		{"emulation wall", m.EmuTime.Round(time.Millisecond).String()},
		{"simulation wall", m.SimTime.Round(time.Millisecond).String()},
	}
	if m.FanoutWall > 0 {
		var sum time.Duration
		for _, c := range m.CellWalls {
			sum += c.Wall
		}
		rows = append(rows,
			[2]string{"fan-out wall (elapsed)", m.FanoutWall.Round(time.Millisecond).String()},
			[2]string{"cell walls (serial-equivalent)", sum.Round(time.Millisecond).String()},
			[2]string{"realized speedup", fmt.Sprintf("%.2fx", float64(sum)/float64(m.FanoutWall))})
		for _, c := range m.CellWalls {
			rows = append(rows, [2]string{
				"cell " + c.Workload + "/" + c.Mode.String(),
				c.Wall.Round(time.Millisecond).String(),
			})
		}
	}
	return rows
}

// Suite runs and caches simulations across workloads and machine
// configurations, fanning out across CPUs. Each workload is functionally
// emulated exactly once per instruction budget; every configuration
// replays the recording. Two singleflight memos (memo.go) hold the
// recordings and the results, so concurrent identical requests share one
// computation. The zero value is not usable; use NewSuite.
type Suite struct {
	MaxInsts uint64 // per-run instruction budget (0 = workload default)

	recordings *memo[traceKey, recording]
	results    *memo[suiteKey, *Result]

	mu      sync.Mutex
	metrics Metrics
}

// suiteKey identifies one cached Result. It carries everything the
// result depends on within one process: the workload, the full machine
// configuration and the resolved instruction budget — so a budget or
// machine change can never be served a stale result, and default and
// custom machines share one cache. Obs is nil in every key: observed
// runs bypass the memo.
type suiteKey struct {
	workload string
	cfg      ooo.Config
	budget   uint64
}

type traceKey struct {
	workload string
	maxInsts uint64
}

// recording is one entry of the recordings memo.
type recording struct {
	rec *trace.Recording
	// repaired marks a recording produced by the live-fallback path: if
	// it still fails to replay, the failure is real and must surface.
	repaired bool
}

// NewSuite creates a result cache with the given per-run budget.
func NewSuite(maxInsts uint64) *Suite {
	return &Suite{
		MaxInsts:   maxInsts,
		recordings: newMemo[traceKey, recording](),
		results:    newMemo[suiteKey, *Result](),
	}
}

// Metrics returns a snapshot of the record/replay counters.
func (s *Suite) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.CellWalls = append([]CellWall(nil), s.metrics.CellWalls...)
	return m
}

// CacheSnapshot returns the cached result keys as sorted
// "workload/mode@budget" strings, with "+custom" after the mode for a
// machine other than that mode's default. The memo is map-keyed, so the
// result is explicitly sorted — `experiments -metrics` output and
// crash-dump context must be byte-stable across identical runs.
func (s *Suite) CacheSnapshot() []string {
	keys := s.results.keys()
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		mode := k.cfg.Mode.String()
		if k.cfg != ooo.DefaultConfig(k.cfg.Mode) {
			mode += "+custom"
		}
		out = append(out, fmt.Sprintf("%s/%s@%d", k.workload, mode, k.budget))
	}
	sort.Strings(out)
	return out
}

// CachedResults returns how many results the suite holds.
func (s *Suite) CachedResults() int { return s.results.size() }

// budget returns the effective per-run instruction bound for w.
func (s *Suite) budget(w workloads.Workload) uint64 {
	if s.MaxInsts != 0 {
		return s.MaxInsts
	}
	return w.MaxInsts
}

// SeedRecording installs an externally produced recording (e.g. loaded
// from a trace file) under its Name and MaxInsts, unless the suite
// already holds or is producing one for that key. Replays will use it
// instead of emulating — and if it turns out to be corrupt, the
// live-fallback path replaces it.
func (s *Suite) SeedRecording(rec *trace.Recording) {
	s.recordings.install(traceKey{rec.Name, rec.MaxInsts}, recording{rec: rec})
}

// SeedResult installs a result computed elsewhere — heliosd's warm start
// from its manifest directory — for (name, cfg, budget), unless the
// suite already holds or is computing that key. budget must be the
// resolved, non-zero budget. It reports whether the result was
// installed.
func (s *Suite) SeedResult(name string, cfg ooo.Config, budget uint64, r *Result) bool {
	return s.results.install(suiteKey{name, cfg, budget}, r)
}

// Get returns the (cached) result for one workload/mode pair at the
// suite's budget. Concurrent calls for the same uncached key share a
// single simulation. Context failures abort the wait or the run but are
// never cached, so a later Get with a live context retries.
func (s *Suite) Get(ctx context.Context, name string, mode fusion.Mode) (*Result, error) {
	return s.GetBudget(ctx, name, mode, 0)
}

// GetBudget is Get with an explicit per-call instruction budget
// (0 = the suite's own budget, falling back to the workload default).
// The resolved budget is part of the cache key, so one Suite serves
// mixed-budget traffic — heliosd's request path — without any risk of a
// budget change returning a stale result.
func (s *Suite) GetBudget(ctx context.Context, name string, mode fusion.Mode, budget uint64) (*Result, error) {
	return s.ReplayConfig(ctx, name, ooo.DefaultConfig(mode), budget)
}

// ReplayConfig is GetBudget with an explicit machine configuration.
// Results are cached by (workload, cfg, budget), so default and custom
// machines share one cache, one record-once trace and one degrade path:
// a recording that fails to replay is re-emulated live exactly once.
// cfg.Obs must be nil; observed runs go through ObserveReplayConfig.
func (s *Suite) ReplayConfig(ctx context.Context, name string, cfg ooo.Config, budget uint64) (*Result, error) {
	r, _, _, err := s.ReplayCached(ctx, name, cfg, budget)
	return r, err
}

// ReplayCached is ReplayConfig that also reports how the cache answered:
// hit means the result was already stored, coalesced that the call
// waited on an identical computation in flight. The computation runs on
// the calling goroutine under ctx; if ctx ends it, a waiting caller
// takes over under its own context. Every span opened here lands on the
// lane ctx carries (telemetry.WithLane): cache_read over the lookup and
// any wait, then on a miss record, replay and cache_write.
func (s *Suite) ReplayCached(ctx context.Context, name string, cfg ooo.Config, budget uint64) (r *Result, hit, coalesced bool, err error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, false, false, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	key := suiteKey{name, cfg, budget}
	rd := telemetry.StartSpan(ctx, "cache_read")
	e, lead, coalesced, err := s.results.claim(ctx, key)
	rd.SetBool("hit", !lead && err == nil)
	rd.SetBool("coalesced", coalesced)
	rd.End()
	if coalesced {
		s.mu.Lock()
		s.metrics.DedupedRuns++
		s.mu.Unlock()
	}
	if err != nil {
		return nil, false, coalesced, err
	}
	if !lead {
		return e.val, !coalesced, coalesced, e.err
	}
	r, err = s.run(ctx, w, cfg, budget)
	wr := telemetry.StartSpan(ctx, "cache_write")
	wr.SetBool("stored", s.results.settle(key, r, err))
	wr.End()
	return r, false, coalesced, err
}

// run performs one uncached simulation: fetch (or make) the workload's
// recording, replay it through the pipeline under cfg, and on a replay
// failure degrade to one live re-emulation. A config that fails Check
// is no fault of the recording: it fails first, with nothing repaired.
func (s *Suite) run(ctx context.Context, w workloads.Workload, cfg ooo.Config, budget uint64) (*Result, error) {
	if err := cfg.Check(); err != nil {
		return nil, fmt.Errorf("core: %s/%v: %w", w.Name, cfg.Mode, err)
	}
	sp := telemetry.StartSpan(ctx, "record")
	rec, err := s.recording(ctx, w, budget)
	sp.SetBool("err", err != nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = telemetry.StartSpan(ctx, "replay")
	sp.SetBool("custom", cfg != ooo.DefaultConfig(cfg.Mode))
	r, err := s.replayDegrade(ctx, w, cfg, rec, budget)
	sp.SetBool("err", err != nil)
	sp.End()
	return r, err
}

// replayDegrade is the replay half of one simulation: run the recording
// through the pipeline, and if the replay fails for a non-context reason
// (corrupt trace file, truncated stream, ...) degrade gracefully —
// re-emulate the workload live, once per trace key, and retry against
// the fresh recording.
func (s *Suite) replayDegrade(ctx context.Context, w workloads.Workload, cfg ooo.Config, rec *trace.Recording, budget uint64) (*Result, error) {
	r, runErr := s.replay(ctx, w.Name, cfg, rec, budget)
	if runErr == nil || isCtxErr(runErr) {
		return r, runErr
	}
	// The degrade span marks the rare repair path in the request's trace
	// — rare enough that heliosd's tail sampler keeps every trace
	// carrying it (its span rule), so /tracez keeps evidence of
	// degradations even under heavy healthy traffic.
	sp := telemetry.StartSpan(ctx, "degrade")
	sp.SetAttr("workload", w.Name)
	fresh, ferr := s.repairRecording(ctx, w, budget, rec)
	if ferr != nil {
		sp.SetBool("err", true)
		sp.End()
		return nil, fmt.Errorf("core: %s: replay failed (%w) and live fallback failed: %w", w.Name, runErr, ferr)
	}
	if fresh == rec {
		// Already the repaired recording: the failure is real.
		sp.SetBool("err", true)
		sp.End()
		return r, runErr
	}
	sp.SetBool("err", false)
	sp.End()
	return s.replay(ctx, w.Name, cfg, fresh, budget)
}

// replay runs one cycle-level simulation over a recording, with timing
// accounted to the suite metrics.
func (s *Suite) replay(ctx context.Context, name string, cfg ooo.Config, rec *trace.Recording, budget uint64) (*Result, error) {
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	r, err := RunSource(ctx, name, cfg, rec.Replay(), budget)
	s.mu.Lock()
	s.metrics.Replays++
	s.metrics.PipelineRuns++
	s.metrics.SimTime += time.Since(start)
	s.mu.Unlock()
	return r, err
}

// ObserveReplayConfig replays the workload's shared recording under cfg
// and instruction budget (0 = the suite's budget) with the
// observability layer attached. The run is never cached (an observed
// Result is a side-effecting run, and the observer's writers are
// caller-owned), but it reuses the suite's record-once trace, so
// observing costs one replay, not a re-emulation. Replay determinism
// guarantees the observed run retires the same stream as the cached
// result for the same key: heliosd's `/v1/run` obs artifacts route
// through here. cfg.Obs is overwritten with ob; everything else is the
// caller's.
func (s *Suite) ObserveReplayConfig(ctx context.Context, name string, cfg ooo.Config, budget uint64, ob *obs.Observer) (*Result, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	rec, err := s.recording(ctx, w, budget)
	if err != nil {
		return nil, err
	}
	cfg.Obs = ob
	r, err := s.replay(ctx, name, cfg, rec, budget)
	if err != nil {
		return r, err
	}
	if oerr := ob.Err(); oerr != nil {
		return r, fmt.Errorf("core: %s/%v: observer: %w", name, cfg.Mode, oerr)
	}
	return r, nil
}

// Recording returns the workload's committed stream at the suite's
// budget, materializing it on first use (experiment drivers replay it for
// trace analyses without re-emulating).
func (s *Suite) Recording(ctx context.Context, name string) (*trace.Recording, error) {
	return s.RecordingBudget(ctx, name, 0)
}

// RecordingBudget is Recording with an explicit instruction budget
// (0 = the suite's budget).
func (s *Suite) RecordingBudget(ctx context.Context, name string, budget uint64) (*trace.Recording, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	return s.recording(ctx, w, budget)
}

// recording is the record-once half: per (workload, budget) key, the
// first caller emulates and everyone else waits for or reuses the buffer.
// A context failure during emulation is returned but not cached.
func (s *Suite) recording(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
	key := traceKey{w.Name, budget}
	e, lead, _, err := s.recordings.claim(ctx, key)
	if err != nil {
		return nil, err
	}
	if !lead {
		s.mu.Lock()
		s.metrics.TraceHits++
		s.mu.Unlock()
		return e.val.rec, e.err
	}

	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	rec, err := s.emulate(ctx, w, budget)
	s.recordings.settle(key, recording{rec: rec}, err)
	s.mu.Lock()
	s.metrics.TraceMisses++
	s.metrics.EmuTime += time.Since(start)
	s.mu.Unlock()
	return rec, err
}

// emulate records the workload's committed stream under ctx.
func (s *Suite) emulate(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
	src, err := w.Trace(budget)
	if err != nil {
		return nil, err
	}
	rec, err := trace.Record(trace.WithContext(ctx, src))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	rec.Name = w.Name
	rec.MaxInsts = budget
	return rec, nil
}

// repairRecording implements the degradation path: replace a recording
// that failed to replay with one fresh live emulation. At most one
// repair happens per trace key — if the repaired recording also fails,
// callers surface the failure. bad is the recording the caller just
// watched fail, so a concurrent repair is detected and reused. A repair
// cut short by its context keeps bad in place, so a later call retries.
func (s *Suite) repairRecording(ctx context.Context, w workloads.Workload, budget uint64, bad *trace.Recording) (*trace.Recording, error) {
	key := traceKey{w.Name, budget}
	e, lead, _, err := s.recordings.replace(ctx, key, recording{rec: bad})
	if err != nil {
		return nil, err
	}
	if !lead {
		// Someone already repaired (or the caller replayed the
		// repaired recording): hand it back as-is.
		return e.val.rec, e.err
	}

	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	rec, err := s.emulate(ctx, w, budget)
	s.recordings.settle(key, recording{rec: rec, repaired: true}, err)
	s.mu.Lock()
	if !isCtxErr(err) {
		s.metrics.LiveFallbacks++
	}
	s.metrics.EmuTime += time.Since(start)
	s.mu.Unlock()
	return rec, err
}
