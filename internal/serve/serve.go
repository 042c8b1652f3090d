package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/report"
	"helios/internal/telemetry"
	"helios/internal/telemetry/sampling"
	"helios/internal/workloads"
)

// Config tunes the service's robustness envelope. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// QueueDepth bounds concurrently admitted requests — the admission
	// queue. Request QueueDepth+1 is rejected with a typed 429.
	QueueDepth int
	// DefaultDeadline applies when a request carries no deadline_ms;
	// MaxDeadline clamps client-supplied deadlines.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the backoff hint attached to overload/draining
	// rejections.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies; larger bodies get a typed 413.
	MaxBodyBytes int64
	// DefaultInsts is the instruction budget when a request sends none
	// (0 = each workload's own budget).
	DefaultInsts uint64
	// SuiteWorkers bounds the suite endpoint's scheduler fan-out
	// (0 = GOMAXPROCS).
	SuiteWorkers int
	// ManifestDir, when set, receives a JSON manifest (config + stats +
	// build identity + result key) for every completed /v1/run, and is
	// scanned at boot: every verifiable manifest a previous process left
	// there warms the result cache.
	ManifestDir string
	// Telemetry enables per-request span tracing and tail sampling
	// (DESIGN.md §15). Off, the tracer is a nil pointer and every hook on
	// the request path is a zero-allocation no-op
	// (TestServeTelemetryOffNoAllocs).
	Telemetry bool
	// TraceDir, when set (and Telemetry is on), receives one Chrome
	// trace-event JSON file per finished request the sampler keeps.
	TraceDir string
	// ArtifactDir, when set, switches /v1/run obs artifacts from inline
	// base64 payloads to server-side files referenced by path.
	ArtifactDir string
	// Sampler makes the tail-based retention decision for every
	// finished trace when Telemetry is on: only kept traces enter the
	// /tracez ring, become /metricz exemplars and reach TraceDir. Nil
	// means sampling.Default(1), which heliosd always runs; tests set it
	// to pin a verdict.
	Sampler telemetry.Sampler
	// TraceRing and FlightSize size the /tracez retention ring and the
	// /debugz/requests flight recorder (0 = telemetry.DefaultRing and
	// DefaultFlightSize, which heliosd always uses). Tests resize them to
	// reach a bound quickly.
	TraceRing, FlightSize int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		QueueDepth:      64,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		RetryAfter:      500 * time.Millisecond,
		MaxBodyBytes:    1 << 20,
	}
}

// Counters is the server's cumulative request telemetry, exposed by
// /metricz and the smoke tooling. All fields are monotonic.
type Counters struct {
	Admitted         uint64
	RejectedOverload uint64
	RejectedDraining uint64
	BadRequests      uint64
	Oversized        uint64
	DeadlineExpired  uint64
	Canceled         uint64
	EngineFaults     uint64
	PanicsRecovered  uint64
	Completed        uint64
	ManifestsWritten uint64
	ManifestErrors   uint64
	// TraceExportErrors counts TraceDir files that could not be created
	// or written.
	TraceExportErrors uint64
	// The result cache's verdicts on /v1/run requests.
	CacheHits, CacheMisses, CacheCoalesced uint64
}

// Server is the heliosd service core: it owns the suite (the record-once
// trace and result caches plus the scheduler) and the robustness
// envelope. It is transport-agnostic — Handler returns the
// http.Handler; the cmd owns the listener.
type Server struct {
	cfg   Config
	suite *core.Suite
	// tel is nil unless Config.Telemetry — the nil pointer IS the
	// disabled state, so the request path never branches on a flag.
	tel *telemetry.Tracer
	// flight is the always-on request flight recorder (/debugz/requests);
	// unlike traces it records with telemetry off too.
	flight *flightRecorder
	// warmEntries counts results restored from ManifestDir at boot; written
	// once before traffic, read-only after.
	warmEntries int
	// runHook, when a test sets it before traffic, runs on every /v1/run
	// request after admission, under the request's deadline context —
	// tests park requests in their admission slots with it.
	runHook func(ctx context.Context)

	wg sync.WaitGroup

	mu          sync.Mutex
	draining    bool
	inflight    int
	maxInflight int
	c           Counters
	// latency is the completed-request wall time in microseconds. Its
	// exemplars are candidates: exposition filters them through
	// Tracer.Retained so /metricz only links to traces /tracez can serve.
	latency telemetry.Histogram
}

// New builds a server. The context is unused: the server starts no
// background work, since every simulation runs on the goroutine of the
// request that needs it.
func New(_ context.Context, cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	var tel *telemetry.Tracer
	if cfg.Telemetry {
		if cfg.Sampler == nil {
			cfg.Sampler = sampling.Default(1)
		}
		tel = telemetry.New(telemetry.Options{Ring: cfg.TraceRing, Sampler: cfg.Sampler})
	}
	s := &Server{
		cfg:    cfg,
		suite:  core.NewSuite(cfg.DefaultInsts),
		tel:    tel,
		flight: newFlightRecorder(cfg.FlightSize),
	}
	if cfg.ManifestDir != "" {
		s.warmEntries = s.warmCache(cfg.ManifestDir)
	}
	return s
}

// Suite exposes the underlying record/replay caches — the chaos soak
// seeds poisoned recordings through it, and cmds surface its metrics.
func (s *Server) Suite() *core.Suite { return s.suite }

// Telemetry exposes the span tracer (nil when disabled); the chaos soak
// audits its span-balance contract through this.
func (s *Server) Telemetry() *telemetry.Tracer { return s.tel }

// MaxInflight reports the admission high-water mark; the soak test
// asserts it never exceeds QueueDepth.
func (s *Server) MaxInflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxInflight
}

// Counters snapshots the request telemetry.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.api(s.handleRun))
	mux.HandleFunc("POST /v1/suite", s.api(s.handleSuite))
	mux.HandleFunc("POST /v1/diff", s.api(s.handleDiff))
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /tracez", s.handleTracez)
	mux.HandleFunc("GET /debugz/requests", s.handleDebugRequests)
	return mux
}

// WarmEntries reports how many cached results boot restored from
// ManifestDir (the heliosd_cache_warm_entries gauge).
func (s *Server) WarmEntries() int { return s.warmEntries }

// FlightSize reports how many summaries the flight recorder currently
// holds (≤ its capacity — the bound the chaos soak asserts is exact).
func (s *Server) FlightSize() int { return s.flight.size() }

// Drain stops admission (new API requests get a typed 503) and waits
// for every in-flight request to finish or ctx to expire. Manifests are
// written synchronously inside each request, so a nil return means all
// results and manifests reached their destinations.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("serve: drain deadline expired with %d request(s) in flight: %w", n, ctx.Err())
	}
}

// api wraps an endpoint with the robustness envelope, outermost first:
// panic isolation (a handler or engine fault becomes a structured 500,
// never process death), drain refusal, bounded admission, body limit,
// and error classification.
func (s *Server) api(h func(ctx context.Context, r *http.Request) (any, *Error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The trace opens before admission so rejected requests trace
		// too, and finishes after the panic recovery defer has run —
		// every span opened below is closed on every exit path, which
		// is exactly the balance contract the chaos soak audits. The
		// flight-recorder defer registers first, so (LIFO) it commits
		// after finishTrace has run the sampler: the summary carries
		// the tail verdict and, for retained traces, a resolvable id.
		start := time.Now()
		fs := &RequestSummary{TimeUnixUS: start.UnixMicro(), Method: r.Method, Path: r.URL.Path}
		tr := s.tel.StartTrace(r.Method + " " + r.URL.Path)
		defer s.recordFlight(fs, tr, start)
		defer s.finishTrace(tr)
		defer func() {
			if rec := recover(); rec != nil {
				s.mu.Lock()
				s.c.PanicsRecovered++
				s.mu.Unlock()
				fs.Outcome = "panic"
				tr.SetAttr("outcome", "panic")
				writeError(w, &Error{Kind: ErrInternal,
					Msg: fmt.Sprintf("recovered handler panic: %v", rec)})
			}
		}()
		adm := tr.Start("admission")
		depth, e := s.admitOne()
		adm.SetInt("inflight", int64(depth))
		if e != nil {
			adm.SetAttr("rejected", string(e.Kind))
			adm.End()
			fs.Outcome = string(e.Kind)
			tr.SetAttr("outcome", string(e.Kind))
			writeError(w, e)
			return
		}
		adm.End()
		t0 := time.Now()
		defer s.releaseOne(t0, tr)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		resp, e := h(withFlight(telemetry.WithTrace(r.Context(), tr), fs), r)
		if e != nil {
			s.noteError(e)
			fs.Outcome = string(e.Kind)
			tr.SetAttr("outcome", string(e.Kind))
			writeError(w, e)
			return
		}
		s.mu.Lock()
		s.c.Completed++
		s.mu.Unlock()
		fs.Outcome = "ok"
		tr.SetAttr("outcome", "ok")
		writeJSON(w, http.StatusOK, resp)
	}
}

// recordFlight stamps the summary's duration and the sampler's tail
// verdict, then commits it to the flight recorder. It runs after
// finishTrace (defer LIFO), so the verdict is decided; TraceID is set
// only when the trace actually sits in the retention ring right now,
// which keeps `heliosctl triage` → `heliosctl trace -id` from dangling.
func (s *Server) recordFlight(fs *RequestSummary, tr *telemetry.Trace, start time.Time) {
	fs.DurUS = time.Since(start).Microseconds()
	if v, ok := tr.Verdict(); ok {
		fs.Sampled = v.Keep
		fs.Policy = v.Policy
		if v.Keep && s.tel.Retained(tr.ID()) {
			fs.TraceID = tr.ID()
		}
	}
	s.flight.record(fs)
}

// finishTrace closes a request trace and, when TraceDir is set and the
// sampler kept the trace, exports it as a standalone Chrome trace-event
// file. Export failures are counted and logged, never request failures.
func (s *Server) finishTrace(tr *telemetry.Trace) {
	tr.Finish()
	if v, _ := tr.Verdict(); s.cfg.TraceDir == "" || !v.Keep {
		return
	}
	ti := tr.Snapshot()
	path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("trace-%d.json", ti.ID))
	f, err := os.Create(path)
	if err == nil {
		err = telemetry.WriteChromeTrace(f, []telemetry.TraceInfo{ti})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.logf("serve: trace export %s: %v", path, err)
		s.mu.Lock()
		s.c.TraceExportErrors++
		s.mu.Unlock()
	}
}

// admitOne is the bounded admission queue: it refuses drains and
// overload under one lock so the inflight count can never exceed
// QueueDepth, and registers the request with the drain group. The int
// return is the post-admission inflight depth (the queue position the
// admission span records).
func (s *Server) admitOne() (int, *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.c.RejectedDraining++
		return s.inflight, &Error{Kind: ErrDraining, Msg: "server is draining",
			RetryAfterMs: s.cfg.RetryAfter.Milliseconds()}
	}
	if s.inflight >= s.cfg.QueueDepth {
		s.c.RejectedOverload++
		return s.inflight, &Error{Kind: ErrOverload,
			Msg:          fmt.Sprintf("admission queue full (%d in flight)", s.inflight),
			RetryAfterMs: s.cfg.RetryAfter.Milliseconds()}
	}
	s.inflight++
	if s.inflight > s.maxInflight {
		s.maxInflight = s.inflight
	}
	s.c.Admitted++
	s.wg.Add(1)
	return s.inflight, nil
}

// releaseOne returns the request's admission slot and folds its wall
// time into the latency histogram. When the request carries a trace the
// duration also becomes an exemplar candidate — candidate, because the
// sampler has not run yet (releaseOne precedes finishTrace in the defer
// stack); exposition filters through Tracer.Retained, so only traces
// the sampler kept are ever emitted.
func (s *Server) releaseOne(t0 time.Time, tr *telemetry.Trace) {
	now := time.Now()
	us := now.Sub(t0).Microseconds()
	id := tr.ID()
	s.mu.Lock()
	s.inflight--
	s.latency.Observe(uint64(us), id, now.UnixMicro())
	s.mu.Unlock()
	s.wg.Done()
}

// noteError counts a classified failure.
func (s *Server) noteError(e *Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case ErrBadRequest:
		s.c.BadRequests++
	case ErrOversized:
		s.c.Oversized++
	case ErrDeadline:
		s.c.DeadlineExpired++
	case ErrCanceled:
		s.c.Canceled++
	case ErrEngine:
		s.c.EngineFaults++
	}
}

// reqCtx derives the request's deadline context: client-supplied
// deadline_ms, clamped to MaxDeadline, defaulting to DefaultDeadline.
func (s *Server) reqCtx(ctx context.Context, deadlineMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMs > 0 {
		d = time.Duration(deadlineMs) * time.Millisecond
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// classify maps an engine/context failure onto the error taxonomy.
func classify(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Kind: ErrDeadline, Msg: "deadline expired before the simulation finished; partial work cancelled"}
	}
	if errors.Is(err, context.Canceled) {
		return &Error{Kind: ErrCanceled, Msg: "request cancelled"}
	}
	var se *ooo.SimError
	if errors.As(err, &se) {
		return &Error{Kind: ErrEngine, Msg: err.Error(), Engine: se.JSON()}
	}
	return &Error{Kind: ErrInternal, Msg: err.Error()}
}

// resolveRun turns a RunRequest into a fully resolved (name, config,
// budget) triple, validating every axis against the registered
// workloads and the paper's fusion modes.
func (s *Server) resolveRun(req *RunRequest) (name string, cfg ooo.Config, budget uint64, e *Error) {
	wl, ok := workloads.ByName(req.Workload)
	if !ok {
		return "", cfg, 0, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown workload %q (GET /v1/workloads lists them)", req.Workload)}
	}
	budget = req.Insts
	if budget == 0 {
		budget = s.cfg.DefaultInsts
	}
	if budget == 0 {
		budget = wl.MaxInsts
	}
	if req.Config != nil {
		if req.Mode != "" && req.Mode != req.Config.Mode.String() {
			return "", cfg, 0, &Error{Kind: ErrBadRequest,
				Msg: fmt.Sprintf("mode %q conflicts with config.Mode %q", req.Mode, req.Config.Mode)}
		}
		if err := req.Config.Check(); err != nil {
			return "", cfg, 0, &Error{Kind: ErrBadRequest, Msg: "config: " + err.Error()}
		}
		return wl.Name, *req.Config, budget, nil
	}
	modeName := req.Mode
	if modeName == "" {
		modeName = fusion.ModeHelios.String()
	}
	mode, ok := fusion.ModeByName(modeName)
	if !ok {
		return "", cfg, 0, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown fusion mode %q (want one of %v)", modeName, fusion.Modes)}
	}
	return wl.Name, ooo.DefaultConfig(mode), budget, nil
}

func (s *Server) handleRun(ctx0 context.Context, r *http.Request) (any, *Error) {
	var req RunRequest
	if e := decodeJSON(r, &req); e != nil {
		return nil, e
	}
	name, cfg, budget, e := s.resolveRun(&req)
	if e != nil {
		return nil, e
	}
	key, err := resultKey(name, cfg, budget, core.EngineVersion())
	if err != nil {
		return nil, classify(err)
	}
	tr := telemetry.FromContext(ctx0)
	tr.SetAttr("workload", name)
	tr.SetAttr("mode", cfg.Mode.String())
	tr.SetAttr("key", key)
	fs := flightFrom(ctx0)
	if fs != nil {
		fs.Workload = name
		fs.Mode = cfg.Mode.String()
	}
	ctx, cancel := s.reqCtx(ctx0, req.DeadlineMs)
	defer cancel()
	if s.runHook != nil {
		s.runHook(ctx)
	}

	if req.Obs != "" {
		return s.runObs(ctx, &req, name, cfg, budget, key)
	}

	res, cached, coalesced, err := s.suite.ReplayCached(ctx, name, cfg, budget)
	verdict := "miss"
	s.mu.Lock()
	switch {
	case cached:
		verdict = "hit"
		s.c.CacheHits++
	case coalesced:
		verdict = "coalesced"
		s.c.CacheCoalesced++
	default:
		s.c.CacheMisses++
	}
	s.mu.Unlock()
	if err != nil {
		return nil, classify(err)
	}
	tr.SetAttr("cached", boolStr(cached))
	if fs != nil {
		fs.Cache = verdict
	}
	if s.cfg.ManifestDir != "" && !cached {
		msp := tr.Start("manifest")
		s.writeManifest(key, name, cfg, budget, res)
		msp.End()
	}
	return &RunResponse{
		Key:       key,
		Workload:  name,
		Mode:      cfg.Mode.String(),
		Insts:     budget,
		Engine:    core.EngineVersion(),
		Cached:    cached,
		Coalesced: coalesced,
		IPC:       res.Stats.IPC(),
		Stats:     res.Stats,
	}, nil
}

func boolStr(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// runObs serves a /v1/run request carrying an obs field: the result is
// recomputed as one observed replay off the suite's record-once trace
// (never through the result cache — an observed run is side-effecting)
// and the captured stream is returned as an artifact, inline base64 by
// default or as a server-side file when ArtifactDir is set. Replay
// determinism makes the payload byte-identical to a heliossim run of
// the same workload/config/budget.
func (s *Server) runObs(ctx context.Context, req *RunRequest, name string, cfg ooo.Config, budget uint64, key string) (any, *Error) {
	ob, buf, ext, e := buildObserver(req)
	if e != nil {
		return nil, e
	}
	tr := telemetry.FromContext(ctx)
	sp := tr.Start("replay")
	sp.SetAttr("obs", req.Obs)
	res, err := s.suite.ObserveReplayConfig(ctx, name, cfg, budget, ob)
	sp.End()
	if err != nil {
		return nil, classify(err)
	}
	art, e := s.emitArtifact(ctx, req.Obs, ext, name, cfg, key, buf.Bytes())
	if e != nil {
		return nil, e
	}
	if s.cfg.ManifestDir != "" {
		msp := tr.Start("manifest")
		art.Manifest = s.writeManifest(key, name, cfg, budget, res)
		msp.End()
	}
	return &RunResponse{
		Key:      key,
		Workload: name,
		Mode:     cfg.Mode.String(),
		Insts:    budget,
		Engine:   core.EngineVersion(),
		IPC:      res.Stats.IPC(),
		Stats:    res.Stats,
		Artifact: art,
	}, nil
}

// buildObserver maps a request's obs field onto a buffered
// obs.Observer: exactly one stream is wired per request, so the
// artifact is a single well-defined file.
func buildObserver(req *RunRequest) (*obs.Observer, *bytes.Buffer, string, *Error) {
	buf := &bytes.Buffer{}
	switch req.Obs {
	case "pipeview":
		return &obs.Observer{PipeView: buf}, buf, "pipeview", nil
	case "events":
		return &obs.Observer{Events: buf}, buf, "events.ndjson", nil
	case "interval":
		interval := req.ObsInterval
		if interval == 0 {
			interval = obs.DefaultInterval
		}
		return &obs.Observer{Metrics: buf, SampleEvery: interval}, buf, "intervals.csv", nil
	default:
		return nil, nil, "", &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown obs kind %q (want pipeview, events or interval)", req.Obs)}
	}
}

// emitArtifact packages a captured obs stream: a server-side file under
// ArtifactDir when configured, an inline base64 payload otherwise. The
// SHA-256 of the raw bytes rides along either way so clients can check
// replay determinism against a local heliossim run without downloading.
func (s *Server) emitArtifact(ctx context.Context, kind, ext, name string, cfg ooo.Config, key string, data []byte) (*Artifact, *Error) {
	sp := telemetry.FromContext(ctx).Start("artifact")
	sp.SetAttr("kind", kind)
	sp.SetInt("bytes", int64(len(data)))
	defer sp.End()
	sum := sha256.Sum256(data)
	art := &Artifact{
		Kind:   kind,
		Bytes:  len(data),
		SHA256: hex.EncodeToString(sum[:]),
	}
	if s.cfg.ArtifactDir == "" {
		art.Encoding = "base64"
		art.Data = base64.StdEncoding.EncodeToString(data)
		return art, nil
	}
	art.Encoding = "file"
	path := filepath.Join(s.cfg.ArtifactDir, fmt.Sprintf("%s-%s-%s.%s", name, cfg.Mode, key[:12], ext))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, &Error{Kind: ErrInternal, Msg: "write artifact: " + err.Error()}
	}
	art.Path = path
	return art, nil
}

// writeManifest records one completed run in ManifestDir, stamped with
// the cache identity (ResultKey/Budget/Engine) warmCache verifies on the
// next boot, and returns the file's path. Manifest failures are
// telemetry, not request failures: the result is already computed and
// correct. The file is written outside s.mu, which admission and the
// health and metrics endpoints share; only the counters are updated
// under it.
func (s *Server) writeManifest(key, name string, cfg ooo.Config, budget uint64, res *core.Result) string {
	m := report.NewManifest(name, cfg.Mode, cfg, res.Stats)
	m.ResultKey = key
	m.Budget = budget
	m.Engine = core.EngineVersion()
	path := filepath.Join(s.cfg.ManifestDir, fmt.Sprintf("%s-%s-%s.json", name, cfg.Mode, key[:12]))
	err := m.WriteFile(path)
	if err != nil {
		s.logf("serve: manifest %s: %v", path, err)
	}
	s.mu.Lock()
	if err != nil {
		s.c.ManifestErrors++
	} else {
		s.c.ManifestsWritten++
	}
	s.mu.Unlock()
	return path
}

// resolveMatrix validates a workload×mode matrix and returns the
// scheduler cells in request order.
func (s *Server) resolveMatrix(names, modeNames []string, budget uint64) ([]core.Cell, *Error) {
	if len(names) == 0 {
		return nil, &Error{Kind: ErrBadRequest, Msg: "workloads list is empty"}
	}
	var modes []fusion.Mode
	if len(modeNames) == 0 {
		modes = fusion.Modes
	} else {
		for _, mn := range modeNames {
			m, ok := fusion.ModeByName(mn)
			if !ok {
				return nil, &Error{Kind: ErrBadRequest,
					Msg: fmt.Sprintf("unknown fusion mode %q (want one of %v)", mn, fusion.Modes)}
			}
			modes = append(modes, m)
		}
	}
	cells := make([]core.Cell, 0, len(names)*len(modes))
	for _, n := range names {
		if _, ok := workloads.ByName(n); !ok {
			return nil, &Error{Kind: ErrBadRequest,
				Msg: fmt.Sprintf("unknown workload %q (GET /v1/workloads lists them)", n)}
		}
		for _, m := range modes {
			cells = append(cells, core.Cell{Workload: n, Mode: m, Budget: budget})
		}
	}
	return cells, nil
}

func (s *Server) handleSuite(ctx0 context.Context, r *http.Request) (any, *Error) {
	var req SuiteRequest
	if e := decodeJSON(r, &req); e != nil {
		return nil, e
	}
	cells, e := s.resolveMatrix(req.Workloads, req.Modes, req.Insts)
	if e != nil {
		return nil, e
	}
	ctx, cancel := s.reqCtx(ctx0, req.DeadlineMs)
	defer cancel()

	out := s.suite.RunCells(ctx, cells, s.cfg.SuiteWorkers)
	resp := &SuiteResponse{Engine: core.EngineVersion(), Budget: req.Insts}
	for _, cr := range out {
		cell := SuiteCell{Workload: cr.Cell.Workload, Mode: cr.Cell.Mode.String()}
		if cr.Err != nil {
			cell.Error = classify(cr.Err)
		} else {
			cell.IPC = cr.Result.Stats.IPC()
			cell.Cycles = cr.Result.Stats.Cycles
			cell.Insts = cr.Result.Stats.CommittedInsts
		}
		resp.Cells = append(resp.Cells, cell)
	}
	return resp, nil
}

func (s *Server) handleDiff(ctx0 context.Context, r *http.Request) (any, *Error) {
	var req DiffRequest
	if e := decodeJSON(r, &req); e != nil {
		return nil, e
	}
	base, ok := fusion.ModeByName(req.BaselineMode)
	if !ok {
		return nil, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown baseline mode %q", req.BaselineMode)}
	}
	target, ok := fusion.ModeByName(req.TargetMode)
	if !ok {
		return nil, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown target mode %q", req.TargetMode)}
	}
	cells, e := s.resolveMatrix(req.Workloads, []string{base.String(), target.String()}, req.Insts)
	if e != nil {
		return nil, e
	}
	ctx, cancel := s.reqCtx(ctx0, req.DeadlineMs)
	defer cancel()

	out := s.suite.RunCells(ctx, cells, s.cfg.SuiteWorkers)
	var baseMs, targetMs []*report.Manifest
	for _, cr := range out {
		if cr.Err != nil {
			return nil, classify(cr.Err) // a diff over partial results would be quietly wrong
		}
		m := report.NewManifest(cr.Cell.Workload, cr.Cell.Mode,
			ooo.DefaultConfig(cr.Cell.Mode), cr.Result.Stats)
		if cr.Cell.Mode == base {
			baseMs = append(baseMs, m)
		} else {
			targetMs = append(targetMs, m)
		}
	}
	d := report.NewDiff(base.String(), baseMs, target.String(), targetMs)
	md, err := d.Markdown()
	if err != nil {
		return nil, classify(err)
	}
	return &DiffResponse{Engine: core.EngineVersion(), Markdown: md, CSV: d.CSV()}, nil
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name     string `json:"name"`
		Insts    uint64 `json:"insts"`
		PaperRef string `json:"paper_ref"`
	}
	var rows []row
	for _, wl := range workloads.All() {
		rows = append(rows, row{wl.Name, wl.MaxInsts, wl.PaperRef})
	}
	writeJSON(w, http.StatusOK, rows)
}

// health is the body shared by /healthz and /readyz: queue and cache
// state at a glance.
type health struct {
	Status        string `json:"status"`
	Engine        string `json:"engine"`
	Draining      bool   `json:"draining"`
	Inflight      int    `json:"inflight"`
	QueueDepth    int    `json:"queue_depth"`
	CacheEntries  int    `json:"cache_entries"`
	LiveFallbacks uint64 `json:"live_fallbacks"`
}

func (s *Server) healthSnapshot() health {
	entries := s.suite.CachedResults()
	lf := s.suite.Metrics().LiveFallbacks
	s.mu.Lock()
	defer s.mu.Unlock()
	return health{
		Status:        "ok",
		Engine:        core.EngineVersion(),
		Draining:      s.draining,
		Inflight:      s.inflight,
		QueueDepth:    s.cfg.QueueDepth,
		CacheEntries:  entries,
		LiveFallbacks: lf,
	}
}

// handleHealthz is liveness: the process is up and the mux responds.
// Always 200 — a draining server is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthSnapshot())
}

// handleReadyz is readiness: 503 while draining or while the admission
// queue is saturated, so load balancers steer traffic away before
// requests start bouncing off the queue.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.healthSnapshot()
	status := http.StatusOK
	switch {
	case h.Draining:
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case h.Inflight >= h.QueueDepth:
		h.Status = "saturated"
		status = http.StatusServiceUnavailable
	default:
		h.Status = "ready"
	}
	writeJSON(w, status, h)
}

// handleTracez serves the tracer's retained ring of finished request
// traces as one Chrome trace-event JSON document — load it straight
// into Perfetto. `?id=N` narrows to one retained trace (the deep link
// /metricz exemplars and flight-recorder entries carry), with a typed
// 404 when the id is not retained — dropped, evicted, or never issued.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		writeError(w, &Error{Kind: ErrBadRequest,
			Msg: "telemetry disabled (start heliosd with -telemetry)"})
		return
	}
	traces := s.tel.Finished()
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			writeError(w, &Error{Kind: ErrBadRequest, Msg: "bad trace id: " + err.Error()})
			return
		}
		ti, ok := s.tel.Find(id)
		if !ok {
			writeError(w, &Error{Kind: ErrNotFound,
				Msg: fmt.Sprintf("trace %d is not retained (dropped by the sampler, evicted, or never issued)", id)})
			return
		}
		traces = []telemetry.TraceInfo{ti}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteChromeTrace(w, traces); err != nil {
		s.logf("serve: tracez export: %v", err)
	}
}

// decodeJSON parses a request body strictly: unknown fields, trailing
// garbage and oversized bodies are typed errors.
func decodeJSON(r *http.Request, v any) *Error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &Error{Kind: ErrOversized,
				Msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return &Error{Kind: ErrBadRequest, Msg: "malformed request: " + err.Error()}
	}
	if dec.More() {
		return &Error{Kind: ErrBadRequest, Msg: "trailing data after JSON body"}
	}
	return nil
}

// writeJSON marshals first and writes once, so a marshal failure can
// still produce a well-formed error response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, &Error{Kind: ErrInternal, Msg: "encode response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError renders a typed error with its HTTP mapping and, for
// retryable kinds, the standard Retry-After header (whole seconds,
// rounded up) alongside the precise retry_after_ms in the body.
func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterMs > 0 {
		secs := (e.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	w.WriteHeader(e.HTTPStatus())
	b, err := json.Marshal(e)
	if err != nil { // Error is plain data; cannot happen
		fmt.Fprintf(w, `{"kind":%q,"msg":"error encoding failed"}`, e.Kind)
		return
	}
	w.Write(append(b, '\n'))
}
