package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helios/internal/report"
)

// TestCacheWarmRoundTrip is the warm start end to end: a first server
// computes results into -manifest-dir manifests, a second server booted
// on the same directory serves them as cache hits without
// re-simulating, and the restored count is visible on /metricz (the
// heliosd_cache_warm_entries gauge in both forms).
func TestCacheWarmRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cfg := testConfig()
	cfg.ManifestDir = dir
	_, tsA := newTestServer(t, cfg)

	for _, req := range []RunRequest{
		{Workload: "crc32", Mode: "Helios"},
		{Workload: "qsort", Mode: "NoFusion"},
	} {
		resp, body := postJSON(t, tsA.URL+"/v1/run", req)
		if resp.StatusCode != 200 {
			t.Fatalf("seed run %s: %d %s", req.Workload, resp.StatusCode, body)
		}
		if decodeRun(t, body).Cached {
			t.Fatalf("first %s run reported cached", req.Workload)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("manifest dir holds %d manifests (%v), want 2", len(files), err)
	}

	// Second boot on the same directory: both results must come back
	// warm, and the very first request must already be a pure hit.
	sB, tsB := newTestServer(t, cfg)
	if got := sB.WarmEntries(); got != 2 {
		t.Fatalf("WarmEntries = %d, want 2", got)
	}
	resp, body := postJSON(t, tsB.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	if resp.StatusCode != 200 {
		t.Fatalf("warm run: %d %s", resp.StatusCode, body)
	}
	if rr := decodeRun(t, body); !rr.Cached {
		t.Errorf("first request after warm boot was not a cache hit: %s", body)
	}

	// The gauge is on both metric surfaces.
	mresp, err := http.Get(tsB.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		WarmEntries int `json:"heliosd_cache_warm_entries"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if doc.WarmEntries != 2 {
		t.Errorf("metricz heliosd_cache_warm_entries = %d, want 2", doc.WarmEntries)
	}
	presp, err := http.Get(tsB.URL + "/metricz?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	pbody, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pbody), "heliosd_cache_warm_entries 2") {
		t.Errorf("OpenMetrics exposition lacks heliosd_cache_warm_entries 2:\n%s", pbody)
	}
}

// TestCacheWarmRejectsUntrusted pins the paranoid half of the warm
// scan: garbage files, schema drift, foreign engines, and manifests
// whose recorded result key no longer reproduces from their own fields
// (the hand-edit / cache-poisoning case) are all skipped at boot —
// logged, never fatal, never installed.
func TestCacheWarmRejectsUntrusted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.ManifestDir = dir
	_, tsA := newTestServer(t, cfg)
	resp, body := postJSON(t, tsA.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	if resp.StatusCode != 200 {
		t.Fatalf("seed run: %d %s", resp.StatusCode, body)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("manifest dir holds %d manifests, want 1", len(files))
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(t *testing.T, name string, mutate func(*report.Manifest)) {
		t.Helper()
		var m report.Manifest
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		mutate(&m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One poisoned variant per trust check, beside the one good file.
	os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{not json"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignore me"), 0o644)
	tamper(t, "schema.json", func(m *report.Manifest) { m.SchemaVersion = 99 })
	tamper(t, "engine.json", func(m *report.Manifest) { m.Engine = "helios-sim/0.0" })
	tamper(t, "nokey.json", func(m *report.Manifest) { m.ResultKey = "" })
	tamper(t, "edited.json", func(m *report.Manifest) { m.Stats.Cycles /= 2; m.Budget++ })
	tamper(t, "mode.json", func(m *report.Manifest) { m.Mode = "NoFusion" })

	sB := New(context.Background(), cfg)
	if got := sB.WarmEntries(); got != 1 {
		t.Errorf("WarmEntries = %d, want 1 (only the untampered manifest)", got)
	}
}
