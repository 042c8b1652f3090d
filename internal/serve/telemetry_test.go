package serve

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"helios/internal/chaos"
	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/telemetry"
	"helios/internal/workloads"
)

// telemetryConfig is testConfig with span tracing on.
func telemetryConfig() Config {
	cfg := testConfig()
	cfg.Telemetry = true
	return cfg
}

// TestServeTelemetryOffNoAllocs pins the disabled-path contract at the
// service layer, mirroring ooo's TestCommitObsOffNoAllocs: with
// Config.Telemetry false the tracer is a nil pointer and the complete
// span hook sequence of one request — trace start, admission span,
// context threading, the suite's lane and cache spans, outcome attrs,
// finish — allocates nothing.
func TestServeTelemetryOffNoAllocs(t *testing.T) {
	s := New(context.Background(), testConfig())
	if s.Telemetry() != nil {
		t.Fatal("telemetry should be disabled in testConfig")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		tr := s.tel.StartTrace("POST /v1/run")
		adm := tr.Start("admission")
		adm.SetInt("inflight", 3)
		adm.End()
		hctx := telemetry.WithTrace(ctx, tr)
		tr2 := telemetry.FromContext(hctx)
		tr2.SetAttr("workload", "crc32")
		lctx := telemetry.WithLane(hctx, 1)
		rd := telemetry.StartSpan(lctx, "cache_read")
		rd.SetBool("hit", true)
		rd.SetBool("coalesced", false)
		rd.End()
		tr.SetAttr("outcome", "ok")
		s.finishTrace(tr)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry request path allocated %.1f times per run, want 0", allocs)
	}
}

// TestServeTraceLifecycle drives real traffic through a telemetry-on
// server and checks the recorded traces against the structural
// contract: every trace validates (in-bounds, laminar per lane), spans
// sum consistently with the measured wall time, the expected request
// phases are present, and the span ledger balances.
func TestServeTraceLifecycle(t *testing.T) {
	s, ts := newTestServer(t, telemetryConfig())

	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != 200 {
		t.Fatalf("uncached run: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != 200 {
		t.Fatalf("cached run: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "no-such"}); resp.StatusCode != 400 {
		t.Fatalf("bad workload: status %d", resp.StatusCode)
	}

	tel := s.Telemetry()
	if err := tel.Balance(); err != nil {
		t.Fatal(err)
	}
	traces := tel.Finished()
	if len(traces) != 3 {
		t.Fatalf("got %d finished traces, want 3", len(traces))
	}
	for _, ti := range traces {
		if err := ti.Validate(); err != nil {
			t.Errorf("trace %d: %v", ti.ID, err)
		}
		if sum := ti.TopLevelSumUS(0); sum > ti.DurUS {
			t.Errorf("trace %d: top-level span sum %dµs exceeds trace duration %dµs", ti.ID, sum, ti.DurUS)
		}
	}

	// The uncached run's trace carries the full phase ledger.
	first := traces[0]
	want := map[string]bool{"admission": false, "cache_read": false,
		"cache_write": false, "record": false, "replay": false}
	for _, sp := range first.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.Unended {
			t.Errorf("span %q never ended", sp.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("uncached run trace lacks a %q span", name)
		}
	}
	if v := attrValue(first.Attrs, "outcome"); v != "ok" {
		t.Errorf("trace outcome = %q, want ok", v)
	}
	if v := attrValue(first.Attrs, "workload"); v != "crc32" {
		t.Errorf("trace workload = %q, want crc32", v)
	}

	// The cached run read the cache and never recorded or replayed.
	second := traces[1]
	for _, sp := range second.Spans {
		if sp.Name == "record" || sp.Name == "replay" {
			t.Errorf("cached run trace has a %q span", sp.Name)
		}
	}
	if v := attrValue(second.Attrs, "cached"); v != "true" {
		t.Errorf("cached run cached attr = %q, want true", v)
	}

	// The rejected-validation run still traced, with the error outcome.
	third := traces[2]
	if v := attrValue(third.Attrs, "outcome"); v != string(ErrBadRequest) {
		t.Errorf("bad-request trace outcome = %q, want %q", v, ErrBadRequest)
	}
}

func attrValue(attrs []telemetry.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTracezEndpoint checks that GET /tracez serves the retained ring
// as loadable Chrome trace-event JSON, and that it 400s with telemetry
// off.
func TestTracezEndpoint(t *testing.T) {
	s, ts := newTestServer(t, telemetryConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})

	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tracez status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("tracez is not valid JSON: %v", err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("tracez has no complete (X) span events")
	}
	_ = s

	// Telemetry off: a typed 400, not an empty document.
	_, tsOff := newTestServer(t, testConfig())
	respOff, err := http.Get(tsOff.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respOff.Body)
	respOff.Body.Close()
	if respOff.StatusCode != 400 {
		t.Errorf("tracez with telemetry off: status %d, want 400", respOff.StatusCode)
	}
}

// TestRunObsArtifact checks the per-request obs plumbing: the inline
// base64 artifact decodes to exactly the bytes a direct observed replay
// of the same (workload, config, budget) produces — the determinism
// contract that makes server artifacts interchangeable with local
// heliossim output.
func TestRunObsArtifact(t *testing.T) {
	_, ts := newTestServer(t, telemetryConfig())

	resp, body := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Workload: "crc32", Mode: "Helios", Obs: "pipeview"})
	if resp.StatusCode != 200 {
		t.Fatalf("obs run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Artifact == nil {
		t.Fatal("obs run returned no artifact")
	}
	if rr.Artifact.Kind != "pipeview" || rr.Artifact.Encoding != "base64" {
		t.Fatalf("artifact = %+v, want inline pipeview", rr.Artifact)
	}
	got, err := base64.StdEncoding.DecodeString(rr.Artifact.Data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != rr.Artifact.SHA256 {
		t.Error("artifact SHA256 does not match payload")
	}

	// Reference run: same workload/config/budget through a fresh suite.
	var ref strings.Builder
	suite := core.NewSuite(testConfig().DefaultInsts)
	_, err = suite.ObserveReplayConfig(context.Background(), "crc32",
		ooo.DefaultConfig(mustMode(t, "Helios")), 0, &obs.Observer{PipeView: &ref})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != ref.String() {
		t.Errorf("server pipeview (%d bytes) differs from direct observed replay (%d bytes)",
			len(got), ref.Len())
	}

	// Unknown kinds are typed 400s.
	resp, _ = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Obs: "flamegraph"})
	if resp.StatusCode != 400 {
		t.Errorf("unknown obs kind: status %d, want 400", resp.StatusCode)
	}
}

// TestRunObsArtifactDir checks the file-encoding path: with ArtifactDir
// set the payload lands on disk and the response carries the path plus
// the digest of the file's bytes. It also pins obs_interval's unit:
// simulated cycles, so every row but the final partial one sits on a
// multiple of the period.
func TestRunObsArtifactDir(t *testing.T) {
	cfg := telemetryConfig()
	cfg.ArtifactDir = t.TempDir()
	_, ts := newTestServer(t, cfg)

	resp, body := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Workload: "crc32", Mode: "Helios", Obs: "interval", ObsInterval: 500})
	if resp.StatusCode != 200 {
		t.Fatalf("obs run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Artifact == nil || rr.Artifact.Encoding != "file" || rr.Artifact.Path == "" {
		t.Fatalf("artifact = %+v, want file encoding with a path", rr.Artifact)
	}
	data, err := os.ReadFile(rr.Artifact.Path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != rr.Artifact.SHA256 {
		t.Error("artifact file digest does not match response SHA256")
	}
	if len(data) != rr.Artifact.Bytes {
		t.Errorf("artifact file is %d bytes, response says %d", len(data), rr.Artifact.Bytes)
	}
	if !strings.HasPrefix(string(data), "cycle,") {
		t.Errorf("interval CSV does not start with its header: %q", firstLine(data))
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if len(rows) < 2 {
		t.Fatalf("interval CSV has %d rows, want several at a 500-cycle period", len(rows))
	}
	for i, row := range rows {
		cycle, err := strconv.ParseUint(strings.Split(row, ",")[0], 10, 64)
		if err != nil {
			t.Fatalf("row %d: %v", i+1, err)
		}
		want := uint64(500 * (i + 1))
		if i == len(rows)-1 && cycle > want-500 && cycle <= want {
			continue // the final partial interval
		}
		if cycle != want {
			t.Errorf("row %d: cycle = %d, want %d", i+1, cycle, want)
		}
	}
}

func firstLine(b []byte) string {
	if i := strings.IndexByte(string(b), '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// TestMetriczContentNegotiation checks both /metricz renderings: the
// JSON document carries the histogram summaries (request latency and,
// with telemetry on, per-span) and the tracing counters, and the
// OpenMetrics form — by query parameter or Accept header — passes the
// repo's own exposition linter with the expected families present.
func TestMetriczContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, telemetryConfig())
	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	postJSON(t, ts.URL+"/v1/run", req)
	postJSON(t, ts.URL+"/v1/run", req)

	// Default: JSON with the HistSummary latency shape.
	var doc struct {
		Latency        telemetry.HistSummary            `json:"heliosd_request_duration_microseconds"`
		Spans          map[string]telemetry.HistSummary `json:"heliosd_span_duration_microseconds"`
		TracesFinished *uint64                          `json:"heliosd_traces_finished"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/metricz", ""), &doc); err != nil {
		t.Fatalf("metricz JSON: %v", err)
	}
	if doc.Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", doc.Latency.Count)
	}
	if doc.Latency.P99 < doc.Latency.P50 {
		t.Errorf("P99 %d < P50 %d", doc.Latency.P99, doc.Latency.P50)
	}
	if doc.TracesFinished == nil || *doc.TracesFinished != 2 {
		t.Errorf("heliosd_traces_finished = %v, want 2 finished traces", doc.TracesFinished)
	}
	if _, ok := doc.Spans["admission"]; !ok {
		t.Errorf("span histograms lack an admission summary: %v", doc.Spans)
	}

	// OpenMetrics negotiation via query param and via Accept header.
	for _, u := range []string{ts.URL + "/metricz?format=openmetrics", ts.URL + "/metricz"} {
		oreq, _ := http.NewRequest("GET", u, nil)
		oreq.Header.Set("Accept", "application/openmetrics-text")
		oresp, err := http.DefaultClient.Do(oreq)
		if err != nil {
			t.Fatal(err)
		}
		obody, _ := io.ReadAll(oresp.Body)
		oresp.Body.Close()
		if ct := oresp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
			t.Fatalf("openmetrics Content-Type = %q", ct)
		}
		if err := telemetry.LintExposition(strings.NewReader(string(obody)), nil); err != nil {
			t.Fatalf("exposition lint: %v\n%s", err, obody)
		}
		for _, fam := range []string{
			"heliosd_requests_admitted_total",
			"heliosd_request_duration_microseconds_bucket",
			"heliosd_span_duration_microseconds_bucket",
			"heliosd_spans_started_total",
		} {
			if !strings.Contains(string(obody), fam) {
				t.Errorf("exposition lacks %s", fam)
			}
		}
	}

	// format=json forces JSON even under an OpenMetrics Accept header.
	jreq, _ := http.NewRequest("GET", ts.URL+"/metricz?format=json", nil)
	jreq.Header.Set("Accept", "application/openmetrics-text")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type = %q", ct)
	}
}

// TestMetriczPromDisabledTelemetry: the exposition stays lintable with
// telemetry off, and the span families are absent from both forms.
func TestMetriczPromDisabledTelemetry(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	body := getBody(t, ts.URL+"/metricz?format=openmetrics", "")
	if err := telemetry.LintExposition(strings.NewReader(string(body)), nil); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	if strings.Contains(string(body), "heliosd_span_duration") {
		t.Error("telemetry-off exposition advertises span histograms")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/metricz", ""), &doc); err != nil {
		t.Fatal(err)
	}
	for key := range doc {
		if strings.HasPrefix(key, "heliosd_span") || strings.HasPrefix(key, "heliosd_trace") {
			t.Errorf("telemetry-off JSON carries tracing family %s", key)
		}
	}
}

// TestMetriczFormsDeclareSameFamilies is the drift guard between the
// two /metricz forms: after a hit, a miss and an error on a
// telemetry-on server, the JSON document's keys are exactly the
// families the OpenMetrics exposition declares.
func TestMetriczFormsDeclareSameFamilies(t *testing.T) {
	_, ts := newTestServer(t, telemetryConfig())
	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	postJSON(t, ts.URL+"/v1/run", req)
	postJSON(t, ts.URL+"/v1/run", req)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "no_such_kernel"})

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/metricz", ""), &doc); err != nil {
		t.Fatal(err)
	}
	var jsonKeys, omFamilies []string
	for key := range doc {
		jsonKeys = append(jsonKeys, key)
	}
	om := getBody(t, ts.URL+"/metricz", "application/openmetrics-text")
	for _, line := range strings.Split(string(om), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			omFamilies = append(omFamilies, strings.Fields(rest)[0])
		}
	}
	sort.Strings(jsonKeys)
	sort.Strings(omFamilies)
	if !slices.Equal(jsonKeys, omFamilies) {
		t.Errorf("JSON keys and OpenMetrics families differ:\njson: %v\nopenmetrics: %v", jsonKeys, omFamilies)
	}
	if !slices.Contains(omFamilies, "heliosd_span_duration_microseconds") {
		t.Errorf("telemetry-on exposition lacks the span histograms: %v", omFamilies)
	}
}

// TestMetricsTableCarriesEveryCounter sets every field of
// serve.Counters and telemetry.Metrics, and the six deterministic
// core.Metrics counters, to distinct values and finds each value in
// both /metricz renderings, so a counter added without a table entry
// fails here.
func TestMetricsTableCarriesEveryCounter(t *testing.T) {
	snap := metricsSnapshot{traced: true}
	want := map[string]string{} // rendered value → field
	next := uint64(1000)
	for _, v := range []reflect.Value{
		reflect.ValueOf(&snap.c).Elem(),
		reflect.ValueOf(&snap.tracing).Elem(),
		reflect.ValueOf(&snap.suite).Elem(),
	} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Uint64 {
				next++
				f.SetUint(next)
				want[strconv.FormatUint(next, 10)] = v.Type().Name() + "." + v.Type().Field(i).Name
			}
		}
	}
	fams := snap.families()

	b, err := json.Marshal(telemetry.MetricsJSON(fams))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	inJSON := map[string]bool{}
	jsonNumbers(doc, inJSON)

	var om strings.Builder
	if err := telemetry.WriteOpenMetrics(&om, fams); err != nil {
		t.Fatal(err)
	}
	inOM := map[string]bool{}
	for _, line := range strings.Split(om.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, _, _ := strings.Cut(line, " # ")
		fields := strings.Fields(sample)
		inOM[fields[len(fields)-1]] = true
	}
	for value, field := range want {
		if !inJSON[value] {
			t.Errorf("%s = %s is missing from the JSON form", field, value)
		}
		if !inOM[value] {
			t.Errorf("%s = %s is missing from the OpenMetrics form", field, value)
		}
	}
}

// jsonNumbers collects every number in a decoded JSON document.
func jsonNumbers(v any, into map[string]bool) {
	switch v := v.(type) {
	case json.Number:
		into[v.String()] = true
	case map[string]any:
		for _, e := range v {
			jsonNumbers(e, into)
		}
	}
}

// getBody GETs url with an optional Accept header and returns the body,
// failing the test unless the status is 200.
func getBody(t *testing.T, url, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestTraceDirExport: with TraceDir set every finished request trace
// lands as its own Chrome trace file.
func TestTraceDirExport(t *testing.T) {
	cfg := telemetryConfig()
	cfg.TraceDir = t.TempDir()
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})

	entries, err := os.ReadDir(cfg.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("TraceDir has %d files, want 1", len(entries))
	}
	b, err := os.ReadFile(cfg.TraceDir + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("exported trace lacks traceEvents")
	}
}

// dropAll is a sampler that keeps no trace.
type dropAll struct{}

func (dropAll) Sample(telemetry.TraceInfo) telemetry.SampleVerdict {
	return telemetry.SampleVerdict{Policy: "none"}
}

// TestSamplerGovernsDiskSinks: with a sampler that drops every trace,
// neither disk sink — the TraceDir files nor the SpanLog NDJSON —
// receives anything, while /metricz still counts every finished trace.
func TestSamplerGovernsDiskSinks(t *testing.T) {
	cfg := telemetryConfig()
	cfg.Sampler = dropAll{}
	cfg.TraceDir = t.TempDir()
	spanLog := filepath.Join(t.TempDir(), "spans.ndjson")
	f, err := os.Create(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg.SpanLog = f
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "no_such_kernel"})

	entries, err := os.ReadDir(cfg.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("TraceDir has %d files for dropped traces, want 0", len(entries))
	}
	if b, err := os.ReadFile(spanLog); err != nil || len(b) != 0 {
		t.Errorf("span log holds %d bytes for dropped traces (err %v), want 0", len(b), err)
	}
	var doc struct {
		Finished uint64 `json:"heliosd_traces_finished"`
		Dropped  uint64 `json:"heliosd_traces_sampled_dropped"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/metricz", ""), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Finished != 2 || doc.Dropped != 2 {
		t.Errorf("finished/dropped traces = %d/%d, want 2/2", doc.Finished, doc.Dropped)
	}
}

func mustMode(t *testing.T, name string) fusion.Mode {
	t.Helper()
	m, ok := fusion.ModeByName(name)
	if !ok {
		t.Fatalf("unknown mode %q", name)
	}
	return m
}

// TestSuiteSpansNestUnderCells: two scheduler workers replay a corrupt
// recording and repair it, and every span the suite opens inside a
// cell — the repair's degrade span included — lands on that cell's
// worker lane and nests under the cell, so every trace validates.
func TestSuiteSpansNestUnderCells(t *testing.T) {
	cfg := telemetryConfig()
	cfg.SuiteWorkers = 2
	s, ts := newTestServer(t, cfg)
	w, _ := workloads.ByName("crc32")
	rec, err := w.Record(cfg.DefaultInsts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := chaos.CorruptRecording(rec, uint64(rec.Len()/2), 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Suite().SeedRecording(bad)

	resp, body := postJSON(t, ts.URL+"/v1/suite", SuiteRequest{Workloads: []string{"crc32"}})
	if resp.StatusCode != 200 {
		t.Fatalf("suite: status %d: %s", resp.StatusCode, body)
	}
	var sr SuiteResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, c := range sr.Cells {
		if c.Error != nil {
			t.Errorf("cell %s/%s: %+v", c.Workload, c.Mode, c.Error)
		}
	}

	degrades := 0
	for _, ti := range s.Telemetry().Finished() {
		if err := ti.Validate(); err != nil {
			t.Errorf("trace %d: %v", ti.ID, err)
		}
		for _, sp := range ti.Spans {
			if sp.Name == "degrade" {
				degrades++
			}
			if sp.Name == "admission" || sp.Name == "cell" || insideCell(sp, ti.Spans) {
				continue
			}
			t.Errorf("trace %d: span %q on lane %d is not inside a cell on its lane", ti.ID, sp.Name, sp.Lane)
		}
	}
	if degrades == 0 {
		t.Error("no degrade span: the corrupt recording was never repaired")
	}
}

// insideCell reports whether sp lies within a cell span on its lane.
func insideCell(sp telemetry.SpanInfo, spans []telemetry.SpanInfo) bool {
	for _, c := range spans {
		if c.Name == "cell" && c.Lane == sp.Lane &&
			c.StartUS <= sp.StartUS && sp.StartUS+sp.DurUS <= c.StartUS+c.DurUS {
			return true
		}
	}
	return false
}
