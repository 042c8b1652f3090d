package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

func getDebugRequests(t *testing.T, url string) (entries []RequestSummary, nextAfter uint64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc struct {
		Requests  []RequestSummary `json:"requests"`
		NextAfter uint64           `json:"next_after"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return doc.Requests, doc.NextAfter
}

// TestFlightRecorderEndpoint drives mixed traffic through a server
// with a tiny flight ring and pins the /debugz/requests contract:
// entries are oldest-first with monotonic seqs, the ring bound is
// exact, the outcome/workload/min_ms filters compose, and the
// next_after cursor pages without loss — the API `heliosctl triage
// -follow` polls.
func TestFlightRecorderEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.FlightSize = 4
	s, ts := newTestServer(t, cfg)
	if got := s.FlightSize(); got != 0 {
		t.Fatalf("fresh recorder holds %d entries", got)
	}

	// Three ok runs, one bad-request, one unknown workload: 5 requests
	// into a 4-slot ring — the first must be overwritten.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "qsort", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "no_such_kernel"})
	postJSONQuiet(ts.URL+"/v1/run", map[string]int{"workload": 7})

	all, next := getDebugRequests(t, ts.URL+"/debugz/requests")
	if len(all) != 4 {
		t.Fatalf("recorder returned %d entries, want the ring bound 4", len(all))
	}
	if next != 5 {
		t.Errorf("next_after = %d, want 5", next)
	}
	for i, e := range all {
		if want := uint64(i + 2); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest evicted, oldest-first order)", i, e.Seq, want)
		}
	}
	// The second ok run survives with its cache/trace annotations.
	if e := all[0]; e.Workload != "qsort" || e.Outcome != "ok" || e.Cache != "miss" {
		t.Errorf("entry 2 = %+v, want ok qsort miss", e)
	}
	// Repeat crc32 run was a pure hit.
	if e := all[1]; e.Cache != "hit" {
		t.Errorf("repeat crc32 cache = %q, want hit", all[1].Cache)
	}
	if e := all[2]; e.Outcome != string(ErrBadRequest) || e.Workload != "" {
		t.Errorf("unknown-workload entry = %+v, want bad-request with no workload", e)
	}

	// outcome=error folds every non-ok kind; outcome=<kind> is exact.
	errs, _ := getDebugRequests(t, ts.URL+"/debugz/requests?outcome=error")
	if len(errs) != 2 {
		t.Errorf("outcome=error returned %d entries, want 2", len(errs))
	}
	bad, _ := getDebugRequests(t, ts.URL+"/debugz/requests?outcome=bad-request")
	if len(bad) != 2 {
		t.Errorf("outcome=bad-request returned %d entries, want 2", len(bad))
	}
	oks, _ := getDebugRequests(t, ts.URL+"/debugz/requests?outcome=ok&workload=qsort")
	if len(oks) != 1 || oks[0].Workload != "qsort" {
		t.Errorf("workload filter returned %+v, want the one qsort run", oks)
	}
	none, _ := getDebugRequests(t, ts.URL+"/debugz/requests?min_ms=60000")
	if len(none) != 0 {
		t.Errorf("min_ms=60000 returned %d entries, want 0", len(none))
	}

	// Cursor paging: after=<seen> returns only newer entries, and the
	// cursor advances even when filters empty the page.
	page, pnext := getDebugRequests(t, fmt.Sprintf("%s/debugz/requests?after=%d", ts.URL, all[1].Seq))
	if len(page) != 2 || page[0].Seq != all[2].Seq {
		t.Errorf("after=%d returned %d entries starting at %d", all[1].Seq, len(page), page[0].Seq)
	}
	if pnext != next {
		t.Errorf("paged next_after = %d, want %d", pnext, next)
	}
	empty, enext := getDebugRequests(t, fmt.Sprintf("%s/debugz/requests?after=%d", ts.URL, next))
	if len(empty) != 0 || enext != next {
		t.Errorf("after=tip returned %d entries, next_after %d (want 0, %d)", len(empty), enext, next)
	}
	// A cursor from before a restart lies past the newest seq: the
	// server answers with its newest seq so the client resyncs.
	stale, snext := getDebugRequests(t, ts.URL+"/debugz/requests?after=500")
	if len(stale) != 0 || snext != next {
		t.Errorf("after=500 returned %d entries, next_after %d (want 0, %d)", len(stale), snext, next)
	}

	// limit keeps the newest.
	last, _ := getDebugRequests(t, ts.URL+"/debugz/requests?limit=1")
	if len(last) != 1 || last[0].Seq != next {
		t.Errorf("limit=1 returned seq %d, want the newest %d", last[0].Seq, next)
	}

	// Hostile parameters are typed 400s.
	for _, q := range []string{"after=x", "limit=-1", "min_ms=-2", "min_ms=soon"} {
		resp, err := http.Get(ts.URL + "/debugz/requests?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFlightRecorderTelemetryOff: the recorder is always-on — with
// telemetry disabled entries still record, just without sampler
// verdicts or trace deep links.
func TestFlightRecorderTelemetryOff(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	all, _ := getDebugRequests(t, ts.URL+"/debugz/requests")
	if len(all) != 1 {
		t.Fatalf("recorder returned %d entries, want 1", len(all))
	}
	e := all[0]
	if e.Outcome != "ok" || e.Workload != "crc32" {
		t.Errorf("entry = %+v, want ok crc32", e)
	}
	if e.Sampled || e.Policy != "" || e.TraceID != 0 {
		t.Errorf("telemetry-off entry carries sampler state: %+v", e)
	}
	if e.DurUS <= 0 {
		t.Errorf("DurUS = %d, want > 0", e.DurUS)
	}
}
