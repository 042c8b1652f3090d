package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"helios/internal/chaos"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/workloads"
)

// testConfig keeps unit-test servers fast and deterministic: tiny
// budgets, generous deadline.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DefaultInsts = 5_000
	cfg.DefaultDeadline = 30 * time.Second
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// park holds every /v1/run request on s after admission until release
// is called (at the latest when the test ends) or the request's deadline
// passes. parked receives one value per request that reached the hook;
// its buffer exceeds any test's request count, so reporting never blocks.
func park(t *testing.T, s *Server) (parked <-chan struct{}, release func()) {
	arrived := make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	s.runHook = func(ctx context.Context) {
		arrived <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	return arrived, release
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// postJSONQuiet is postJSON for goroutines, where t.Fatal is illegal:
// failures come back as errors.
func postJSONQuiet(url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

func decodeRun(t *testing.T, b []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("bad RunResponse %s: %v", b, err)
	}
	return rr
}

func decodeError(t *testing.T, b []byte) Error {
	t.Helper()
	var e Error
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("bad Error body %s: %v", b, err)
	}
	if e.Kind == "" {
		t.Fatalf("error body has no kind: %s", b)
	}
	return e
}

// TestRunCachedAndCoalesced pins the content-addressed cache contract:
// the first request computes, an identical repeat is a pure hit with
// the same key, and a different budget is a different key.
func TestRunCachedAndCoalesced(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := RunRequest{Workload: "crc32", Mode: "Helios"}

	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	first := decodeRun(t, body)
	if first.Cached || first.Key == "" || first.IPC <= 0 {
		t.Fatalf("first run: cached=%v key=%q ipc=%v", first.Cached, first.Key, first.IPC)
	}
	if first.Engine == "" || !strings.HasPrefix(first.Engine, "helios-engine/") {
		t.Errorf("engine identity missing: %q", first.Engine)
	}

	_, body = postJSON(t, ts.URL+"/v1/run", req)
	second := decodeRun(t, body)
	if !second.Cached || second.Key != first.Key {
		t.Errorf("repeat was not a cache hit: cached=%v key match=%v", second.Cached, second.Key == first.Key)
	}
	if second.Stats.Cycles != first.Stats.Cycles {
		t.Error("cache hit returned different stats")
	}

	_, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios", Insts: 2_000})
	other := decodeRun(t, body)
	if other.Cached || other.Key == first.Key {
		t.Error("different budget shared a content key")
	}
}

// TestRunCustomConfig: a custom machine gets its own content key, and a
// config change changes the key.
func TestRunCustomConfig(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.FetchWidth = 1
	cfg.DecodeWidth = 1
	cfg.RenameWidth = 1
	cfg.DispatchWidth = 1
	cfg.CommitWidth = 1
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &cfg})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	narrow := decodeRun(t, body)

	wide := ooo.DefaultConfig(fusion.ModeHelios)
	_, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &wide})
	def := decodeRun(t, body)
	if narrow.Key == def.Key {
		t.Error("different machine configs shared a content key")
	}
	if narrow.Stats.Cycles <= def.Stats.Cycles {
		t.Errorf("1-wide machine (%d cycles) should be slower than the 8-wide default (%d cycles)",
			narrow.Stats.Cycles, def.Stats.Cycles)
	}
}

// TestHostileRequests drives the input-validation taxonomy: malformed
// JSON, trailing garbage, unknown fields, unknown workload/mode and an
// oversized body on /v1/run, and bad query parameters on the GET
// endpoints (and /tracez with telemetry off) — every one a typed 4xx
// with a JSON error body, never a 500 or plain text.
func TestHostileRequests(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 4 << 10
	_, ts := newTestServer(t, cfg)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		kind   ErrKind
	}{
		{"malformed", "POST", "/v1/run", `{"workload": crc32}`, 400, ErrBadRequest},
		{"trailing", "POST", "/v1/run", `{"workload":"crc32"} garbage`, 400, ErrBadRequest},
		{"unknown-field", "POST", "/v1/run", `{"workload":"crc32","wat":1}`, 400, ErrBadRequest},
		{"unknown-workload", "POST", "/v1/run", `{"workload":"nope"}`, 400, ErrBadRequest},
		{"unknown-mode", "POST", "/v1/run", `{"workload":"crc32","mode":"Turbo"}`, 400, ErrBadRequest},
		{"oversized", "POST", "/v1/run", `{"workload":"` + strings.Repeat("a", 8<<10) + `"}`, 413, ErrOversized},
		{"empty", "POST", "/v1/run", ``, 400, ErrBadRequest},
		{"tracez-telemetry-off", "GET", "/tracez", ``, 400, ErrBadRequest},
		{"requests-bad-after", "GET", "/debugz/requests?after=x", ``, 400, ErrBadRequest},
		{"requests-negative-limit", "GET", "/debugz/requests?limit=-1", ``, 400, ErrBadRequest},
		{"requests-bad-min-ms", "GET", "/debugz/requests?min_ms=x", ``, 400, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, buf.Bytes())
			}
			if e := decodeError(t, buf.Bytes()); e.Kind != tc.kind {
				t.Errorf("kind = %s, want %s", e.Kind, tc.kind)
			}
		})
	}
}

// TestHostileConfigs sends custom machines the model cannot run, or that
// would make it allocate without bound: each must come back a typed 400
// naming the field, before any simulation, and no handler may panic.
// On a server that does not check them, every value here fails fast: a
// panic, a watchdog, or an allocation of tens of megabytes at most.
// Machines the model runs pass the same check.
func TestHostileConfigs(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	cases := []struct {
		field string
		mut   func(*ooo.Config)
	}{
		{"PhysRegs", func(c *ooo.Config) { c.PhysRegs = 8 }},
		{"ROBSize", func(c *ooo.Config) { c.ROBSize = -1 }},
		{"Cache.L1D.Sets", func(c *ooo.Config) { c.Cache.L1D.Sets = 0 }},
		{"Cache.L1I.LineSize", func(c *ooo.Config) { c.Cache.L1I.LineSize = 0 }},
		{"FetchWidth", func(c *ooo.Config) { c.FetchWidth = -1 }},
		{"StoreDrainPerCycle", func(c *ooo.Config) { c.StoreDrainPerCycle = -1 }},
		{"TAGELogSize", func(c *ooo.Config) { c.TAGELogSize = 64 }},
		{"Mode", func(c *ooo.Config) { c.Mode = fusion.Mode(len(fusion.Modes)) }},
		{"ROBSize", func(c *ooo.Config) { c.ROBSize = 1<<20 + 1 }},
		{"TAGELogSize", func(c *ooo.Config) { c.TAGELogSize = 21 }},
		{"DivLatency", func(c *ooo.Config) { c.DivLatency = 10_001 }},
	}
	for _, tc := range cases {
		cfg := ooo.DefaultConfig(fusion.ModeHelios)
		tc.mut(&cfg)
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &cfg})
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400: %s", tc.field, resp.StatusCode, body)
			continue
		}
		if e := decodeError(t, body); e.Kind != ErrBadRequest || !strings.Contains(e.Msg, tc.field+" = ") {
			t.Errorf("%s: %s %q, want a %s naming the field", tc.field, e.Kind, e.Msg, ErrBadRequest)
		}
	}
	if c := s.Counters(); c.PanicsRecovered != 0 {
		t.Errorf("PanicsRecovered = %d, want 0", c.PanicsRecovered)
	}

	for _, mode := range fusion.Modes {
		if err := ooo.DefaultConfig(mode).Check(); err != nil {
			t.Errorf("DefaultConfig(%v) rejected: %v", mode, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		if cfg := chaos.RandomConfig(rng, fusion.Modes[i%len(fusion.Modes)]); cfg.Check() != nil {
			t.Fatalf("chaos.RandomConfig #%d rejected: %v", i, cfg.Check())
		}
	}
	sparse := ooo.Config{Mode: fusion.ModeHelios, ROBSize: 64}
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &sparse}); resp.StatusCode != 200 {
		t.Errorf("sparse config: status %d: %s", resp.StatusCode, body)
	}
}

// TestAdmissionOverload parks QueueDepth requests inside their
// admission slots and checks the next request bounces with a typed 429
// carrying both retry-after forms.
func TestAdmissionOverload(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.RetryAfter = 1500 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	parked, release := park(t, s)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: fusion.Modes[i].String()})
		}(i)
	}
	<-parked
	<-parked

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "sha", Mode: "Helios"})
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Kind != ErrOverload || e.RetryAfterMs != 1500 {
		t.Errorf("overload error = %+v, want kind=overload retry_after_ms=1500", e)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After header = %q, want %q (1500ms rounded up)", ra, "2")
	}
	release()
	wg.Wait()
	if got := s.MaxInflight(); got > 2 {
		t.Errorf("max inflight = %d, exceeded QueueDepth 2", got)
	}
	if c := s.Counters(); c.RejectedOverload != 1 {
		t.Errorf("RejectedOverload = %d, want 1", c.RejectedOverload)
	}
}

// TestDeadlinePropagation: a 1ms deadline that expires while the run is
// parked must come back as a typed 504, and the partial work must not
// poison the cache — a later request with a sane deadline succeeds.
func TestDeadlinePropagation(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	_, release := park(t, s)

	req := RunRequest{Workload: "crc32", Mode: "Helios", DeadlineMs: 1}
	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 504 {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != ErrDeadline {
		t.Errorf("kind = %s, want %s", e.Kind, ErrDeadline)
	}

	release()
	req.DeadlineMs = 30_000
	resp, body = postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("deadline failure was cached: retry got %d (%s)", resp.StatusCode, body)
	}
}

// TestConcurrentModesShareRecording fires every fusion mode for one
// workload concurrently: all six must share one record phase
// (TraceMisses == 1).
func TestConcurrentModesShareRecording(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	var wg sync.WaitGroup
	for _, m := range fusion.Modes {
		wg.Add(1)
		go func(m fusion.Mode) {
			defer wg.Done()
			status, body, err := postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: m.String()})
			if err != nil || status != 200 {
				t.Errorf("%v: status %d err %v: %s", m, status, err, body)
			}
		}(m)
	}
	wg.Wait()

	if m := s.Suite().Metrics(); m.TraceMisses != 1 {
		t.Errorf("TraceMisses = %d, want 1 (six modes must share one record phase)", m.TraceMisses)
	}
}

// TestDegradationServesThroughCorruptCache seeds a poisoned recording
// and checks the request still succeeds via exactly one live
// re-emulation, with the repair visible on /healthz.
func TestDegradationServesThroughCorruptCache(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)

	w, _ := workloads.ByName("crc32")
	rec, err := w.Record(cfg.DefaultInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := chaos.CorruptRecording(rec, uint64(rec.Len()/2), 99)
	if err != nil {
		t.Fatal(err)
	}
	s.Suite().SeedRecording(bad)

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	if resp.StatusCode != 200 {
		t.Fatalf("corrupt recording was not degraded: %d (%s)", resp.StatusCode, body)
	}
	if rr := decodeRun(t, body); rr.Stats.CommittedInsts == 0 {
		t.Fatal("empty result after degradation")
	}
	if lf := s.Suite().Metrics().LiveFallbacks; lf != 1 {
		t.Errorf("LiveFallbacks = %d, want 1", lf)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if h.LiveFallbacks != 1 {
		t.Errorf("/healthz live_fallbacks = %d, want 1", h.LiveFallbacks)
	}
}

// TestSuiteEndpoint: a 2×2 matrix comes back in request order with
// consistent per-cell results.
func TestSuiteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/suite", SuiteRequest{
		Workloads: []string{"crc32", "sha"},
		Modes:     []string{"NoFusion", "Helios"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SuiteResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := []string{"crc32/NoFusion", "crc32/Helios", "sha/NoFusion", "sha/Helios"}
	if len(sr.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(sr.Cells), len(want))
	}
	for i, c := range sr.Cells {
		if got := c.Workload + "/" + c.Mode; got != want[i] {
			t.Errorf("cell %d = %s, want %s (request order)", i, got, want[i])
		}
		if c.Error != nil || c.IPC <= 0 || c.Cycles == 0 {
			t.Errorf("cell %d incomplete: %+v", i, c)
		}
	}
}

// TestDiffEndpoint: the differential report renders and carries the
// expected markers.
func TestDiffEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/diff", DiffRequest{
		Workloads:    []string{"crc32"},
		BaselineMode: "NoFusion",
		TargetMode:   "Helios",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr DiffResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dr.Markdown, "crc32") || !strings.Contains(dr.Markdown, "IPC") {
		t.Errorf("markdown report missing expected content:\n%.400s", dr.Markdown)
	}
	if !strings.Contains(dr.CSV, "crc32") {
		t.Error("csv report missing workload row")
	}
}

// TestDrain pins the drain contract: in-flight work finishes, new work
// is refused with a typed 503, readyz flips to draining, and Drain
// returns nil within the deadline.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	parked, release := park(t, s)

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		status, body, err := postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
		if err != nil {
			body = []byte(err.Error())
		}
		inflight <- result{status, body}
	}()
	<-parked

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()
	// Release the parked request only once the drain has begun, so the
	// drain must wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for !s.healthSnapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain never began")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-inflight
	if r.status != 200 {
		t.Fatalf("in-flight request was not drained cleanly: %d (%s)", r.status, r.body)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "sha"})
	if resp.StatusCode != 503 {
		t.Fatalf("post-drain status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != ErrDraining {
		t.Errorf("kind = %s, want %s", e.Kind, ErrDraining)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != 503 {
		t.Errorf("readyz while draining = %d, want 503", rresp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Errorf("healthz while draining = %d, want 200 (draining is alive)", hresp.StatusCode)
	}
}

// TestDrainDeadlineExpires: a request that outlives the drain window
// surfaces as a drain error naming the stragglers.
func TestDrainDeadlineExpires(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	parked, _ := park(t, s)

	go postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	<-parked
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.Drain(dctx)
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("drain err = %v, want deadline error naming in-flight count", err)
	}
}

// TestMetricz spot-checks the telemetry surface.
func TestMetricz(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Admitted     uint64 `json:"heliosd_requests_admitted"`
		Completed    uint64 `json:"heliosd_requests_completed"`
		CacheEntries int    `json:"heliosd_cache_entries"`
		CacheHits    uint64 `json:"heliosd_cache_hits"`
		CacheMisses  uint64 `json:"heliosd_cache_misses"`
		Latency      struct {
			Count uint64 `json:"count"`
		} `json:"heliosd_request_duration_microseconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Admitted != 2 || m.Completed != 2 {
		t.Errorf("admitted/completed = %d/%d, want 2/2", m.Admitted, m.Completed)
	}
	if m.CacheEntries != 1 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache entries/hits/misses = %d/%d/%d, want 1/1/1", m.CacheEntries, m.CacheHits, m.CacheMisses)
	}
	if m.Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", m.Latency.Count)
	}
}

// TestResultKeySensitivity: the content address must move with every
// input axis and be stable for identical inputs.
func TestResultKeySensitivity(t *testing.T) {
	base := ooo.DefaultConfig(fusion.ModeHelios)
	k0, err := resultKey("crc32", base, 1000, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if k1, _ := resultKey("crc32", base, 1000, "e1"); k1 != k0 {
		t.Error("identical inputs produced different keys")
	}
	variants := map[string]func() (string, error){
		"workload": func() (string, error) { return resultKey("sha", base, 1000, "e1") },
		"budget":   func() (string, error) { return resultKey("crc32", base, 2000, "e1") },
		"engine":   func() (string, error) { return resultKey("crc32", base, 1000, "e2") },
		"config": func() (string, error) {
			c := base
			c.ROBSize = 64
			return resultKey("crc32", c, 1000, "e1")
		},
		"mode": func() (string, error) {
			return resultKey("crc32", ooo.DefaultConfig(fusion.ModeNoFusion), 1000, "e1")
		},
	}
	for axis, fn := range variants {
		k, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the content key", axis)
		}
	}
}

// TestPanicIsolation: a handler panic becomes a structured 500, the
// server keeps serving, and the recovery is counted.
func TestPanicIsolation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, testConfig())
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("POST /boom", s.api(func(ctx context.Context, r *http.Request) (any, *Error) {
		panic("stage exploded")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, buf.Bytes()); e.Kind != ErrInternal {
		t.Errorf("kind = %s, want %s", e.Kind, ErrInternal)
	}
	if c := s.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", c.PanicsRecovered)
	}
	// Still serving.
	resp2, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	if resp2.StatusCode != 200 {
		t.Fatalf("server did not survive the panic: %d (%s)", resp2.StatusCode, body)
	}
}

// TestManifestPerRequest: completed runs land one manifest each in the
// manifest directory, loadable by the report package's reader rules.
func TestManifestPerRequest(t *testing.T) {
	cfg := testConfig()
	cfg.ManifestDir = t.TempDir()
	s, ts := newTestServer(t, cfg)

	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "NoFusion"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"}) // cache hit: no new manifest

	if c := s.Counters(); c.ManifestsWritten != 2 || c.ManifestErrors != 0 {
		t.Errorf("manifests written/errors = %d/%d, want 2/0", c.ManifestsWritten, c.ManifestErrors)
	}
}

// TestWorkloadsEndpoint sanity-checks the discovery surface.
func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []struct {
		Name  string `json:"name"`
		Insts uint64 `json:"insts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no workloads listed")
	}
	seen := false
	for _, r := range rows {
		if r.Name == "crc32" && r.Insts > 0 {
			seen = true
		}
	}
	if !seen {
		t.Errorf("crc32 missing from %v", rows)
	}
}
