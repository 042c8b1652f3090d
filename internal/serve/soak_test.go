package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"helios/internal/chaos"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/telemetry/sampling"
	"helios/internal/workloads"
)

// TestServiceSoak is the server-level chaos campaign (ISSUE satellite):
// concurrent clients fire a randomized mix of benign and hostile
// traffic — valid runs across workloads/modes/budgets, custom chaotic
// machine configs, malformed JSON, unknown workloads, oversized bodies,
// 1ms deadlines — against a server whose trace cache has been seeded
// with corrupt recordings. The contract under fire:
//
//   - zero panics, zero hung requests (chaos.ServiceCampaign's watchdog)
//   - every response is a valid result or a typed error (no violations)
//   - the admission queue bound is never exceeded
//   - every span started during the campaign ended exactly once — no
//     orphan spans under the panic/deadline/drain paths (the audit hook
//     of chaos.AuditedServiceCampaign)
//   - the tail sampler under fire: zero error-kind traces evicted, the
//     retention ledger exact (kept − evicted == retained ≤ ring), the
//     healthy-traffic budget genuinely dropping traces, and every
//     error in the flight recorder carrying a trace ID that resolves
//   - the server drains cleanly afterwards and refuses new work typed
//
// Run under -race this doubles as the concurrency audit of the whole
// serve stack (the suite's singleflight memo, admission accounting,
// tracer, sampler, flight recorder).
func TestServiceSoak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultInsts = 3_000
	cfg.QueueDepth = 6 // small enough that overload genuinely fires
	cfg.MaxBodyBytes = 8 << 10
	cfg.RetryAfter = 5 * time.Millisecond
	cfg.Telemetry = true
	cfg.TraceRing = 512 // above the error-trace count, so no error ever needs evicting
	// The campaign's sampler: heliosd's rules with the healthy-traffic
	// budget pinched to a non-refilling 8-trace burst (perSec 0), so the
	// rate rule is guaranteed to run dry and SampledDropped > 0 is a
	// hard assertion, not a timing accident. The seeded floor keeps
	// verdicts reproducible across runs.
	cfg.Sampler = sampling.New(1, 0, 8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Poison the trace cache for two workloads: requests touching them
	// must survive via the live-fallback degradation path.
	for i, name := range []string{"crc32", "sha"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		rec, err := w.Record(cfg.DefaultInsts)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := chaos.CorruptRecording(rec, uint64(rec.Len()/3), int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		s.Suite().SeedRecording(bad)
	}

	names := []string{"crc32", "sha", "qsort", "bitcount"}
	const clients, perClient = 8, 25

	// The span audit runs after every client is done. Every span opens
	// and ends on a request's own goroutines, so the ledger must balance
	// the moment the campaign returns.
	audit := func() []error {
		tel := s.Telemetry()
		var errs []error
		if err := tel.Balance(); err != nil {
			errs = append(errs, err)
		}
		for _, ti := range tel.Finished() {
			if err := ti.Validate(); err != nil {
				errs = append(errs, fmt.Errorf("trace %d (%s): %w", ti.ID, ti.Name, err))
			}
		}
		return errs
	}

	// The sampling audit runs after the balance audit, on the same
	// quiescent tracer, so the ledger it checks is final.
	samplingAudit := func() []error {
		tel := s.Telemetry()
		m := tel.Metrics()
		st := tel.Sampling()
		var errs []error
		if m.SampledDropped == 0 {
			errs = append(errs, fmt.Errorf("sampler dropped nothing — the soak never exercised tail sampling"))
		}
		var kept, evicted uint64
		for _, pc := range st.KeptByPolicy {
			kept += pc.Count
		}
		for _, pc := range st.EvictedByPolicy {
			evicted += pc.Count
			if pc.Policy == "error" && pc.Count > 0 {
				errs = append(errs, fmt.Errorf("%d error-kind traces evicted from the ring — errors must outlive everything", pc.Count))
			}
		}
		if kept != m.SampledKept {
			errs = append(errs, fmt.Errorf("kept-by-policy ledger leak: per-policy sum %d != sampled_kept %d", kept, m.SampledKept))
		}
		if evicted != m.RingEvicted {
			errs = append(errs, fmt.Errorf("evicted-by-policy ledger leak: per-policy sum %d != ring_evicted %d", evicted, m.RingEvicted))
		}
		if st.Retained > cfg.TraceRing {
			errs = append(errs, fmt.Errorf("ring bound violated: %d retained > cap %d", st.Retained, cfg.TraceRing))
		}
		if uint64(st.Retained) != m.SampledKept-m.RingEvicted {
			errs = append(errs, fmt.Errorf("retention ledger: retained %d != kept %d - evicted %d",
				st.Retained, m.SampledKept, m.RingEvicted))
		}
		return errs
	}

	// The flight audit: exactly one entry per campaign request (the ring
	// is sized above the campaign), and every error entry deep-links to a
	// retained trace — the triage pipeline's core promise. recordFlight
	// is the last deferred hook of a request, so the recorder can trail
	// the tracer by microseconds; poll briefly before judging.
	flightAudit := func() []error {
		var errs []error
		want := clients * perClient
		for wait := time.Duration(0); s.FlightSize() < want && wait < 2*time.Second; wait += 10 * time.Millisecond {
			time.Sleep(10 * time.Millisecond)
		}
		if got := s.FlightSize(); got != want {
			errs = append(errs, fmt.Errorf("flight recorder holds %d entries, want exactly %d", got, want))
		}
		all, _ := s.flight.snapshot(0)
		for _, e := range all {
			if e.Outcome == "ok" {
				continue
			}
			if e.Outcome == "" {
				errs = append(errs, fmt.Errorf("flight #%d (%s %s): empty outcome", e.Seq, e.Method, e.Path))
				continue
			}
			if !e.Sampled || e.Policy != "error" {
				errs = append(errs, fmt.Errorf("flight #%d outcome %q: sampled=%t policy=%q, want kept by the error policy",
					e.Seq, e.Outcome, e.Sampled, e.Policy))
				continue
			}
			if e.TraceID == 0 {
				errs = append(errs, fmt.Errorf("flight #%d outcome %q: no retained trace to deep-link", e.Seq, e.Outcome))
				continue
			}
			if _, ok := s.Telemetry().Find(e.TraceID); !ok {
				errs = append(errs, fmt.Errorf("flight #%d outcome %q: trace %d does not resolve", e.Seq, e.Outcome, e.TraceID))
			}
		}
		return errs
	}

	rep := chaos.AuditedServiceCampaign(ctx, clients, perClient, 30*time.Second,
		func(ctx context.Context, client, seq int) (chaos.ServiceVerdict, string) {
			rng := rand.New(rand.NewPCG(uint64(client), uint64(seq)))
			switch rng.IntN(10) {
			case 0: // malformed JSON
				return expectTypedError(ts.URL+"/v1/run", `{"workload": nope}`, 400, ErrBadRequest)
			case 1: // unknown workload
				return expectTypedError(ts.URL+"/v1/run", `{"workload":"missing_kernel"}`, 400, ErrBadRequest)
			case 2: // oversized body
				return expectTypedError(ts.URL+"/v1/run",
					`{"workload":"`+strings.Repeat("x", 16<<10)+`"}`, 413, ErrOversized)
			case 3: // hopeless 1ms deadline
				body := fmt.Sprintf(`{"workload":%q,"deadline_ms":1}`, names[rng.IntN(len(names))])
				return soakPost(ts.URL+"/v1/run", body)
			case 4: // custom chaotic machine: tiny structures, still legal
				c := ooo.DefaultConfig(fusion.Modes[rng.IntN(len(fusion.Modes))])
				c.ROBSize = 16 + rng.IntN(64)
				c.IQSize = 8 + rng.IntN(32)
				req, _ := json.Marshal(RunRequest{Workload: names[rng.IntN(len(names))], Config: &c})
				return soakPost(ts.URL+"/v1/run", string(req))
			case 5: // suite matrix
				body := fmt.Sprintf(`{"workloads":[%q],"modes":["NoFusion","Helios"]}`, names[rng.IntN(len(names))])
				return soakPost(ts.URL+"/v1/suite", body)
			case 6: // observed replay with an inline artifact
				body := fmt.Sprintf(`{"workload":%q,"obs":"pipeview","insts":2000}`, names[rng.IntN(len(names))])
				return soakPost(ts.URL+"/v1/run", body)
			default: // benign run across workloads/modes/budgets
				body := fmt.Sprintf(`{"workload":%q,"mode":%q,"insts":%d}`,
					names[rng.IntN(len(names))],
					fusion.Modes[rng.IntN(len(fusion.Modes))].String(),
					1_000*(1+rng.IntN(3)))
				return soakPost(ts.URL+"/v1/run", body)
			}
		}, chaos.Audits(audit, samplingAudit, flightAudit))

	if rep.Runs != clients*perClient {
		t.Errorf("Runs = %d, want %d", rep.Runs, clients*perClient)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("service contract violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Clean+rep.TypedErrors != rep.Runs {
		t.Errorf("classification leak: clean %d + typed %d != runs %d", rep.Clean, rep.TypedErrors, rep.Runs)
	}
	if rep.Clean == 0 {
		t.Error("soak produced no clean results — traffic mix is broken")
	}
	if got := s.MaxInflight(); got > cfg.QueueDepth {
		t.Errorf("admission bound violated: max inflight %d > queue depth %d", got, cfg.QueueDepth)
	}
	if c := s.Counters(); c.PanicsRecovered != 0 {
		t.Errorf("PanicsRecovered = %d, want 0", c.PanicsRecovered)
	}

	// The degradation path must have fired for the poisoned workloads —
	// otherwise this soak never exercised it.
	if lf := s.Suite().Metrics().LiveFallbacks; lf == 0 {
		t.Error("LiveFallbacks = 0: corrupt recordings were never served through")
	}

	// Post-campaign: clean drain within the deadline, then typed refusal.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	status, body, err := postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	if err != nil {
		t.Fatal(err)
	}
	if status != 503 {
		t.Fatalf("post-drain status = %d, want 503 (%s)", status, body)
	}
	var e Error
	if err := json.Unmarshal(body, &e); err != nil || e.Kind != ErrDraining {
		t.Errorf("post-drain error = %s (%v), want kind %s", body, err, ErrDraining)
	}
}

// soakPost issues one request and classifies the response against the
// service contract: HTTP 200 with a parseable result is clean, any
// non-200 with a parseable typed error is a typed error, everything
// else is a violation.
func soakPost(url, body string) (chaos.ServiceVerdict, string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return chaos.ServiceViolation, "transport error: " + err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return chaos.ServiceViolation, "read body: " + err.Error()
	}
	if resp.StatusCode == 200 {
		var probe struct {
			Cells json.RawMessage `json:"cells"` // suite responses
			Key   string          `json:"key"`   // run responses
		}
		if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
			return chaos.ServiceViolation, "200 with unparseable body: " + buf.String()
		}
		if probe.Key == "" && probe.Cells == nil {
			return chaos.ServiceViolation, "200 with neither result nor cells: " + buf.String()
		}
		return chaos.ServiceClean, ""
	}
	var e Error
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Kind == "" {
		return chaos.ServiceViolation,
			fmt.Sprintf("status %d with untyped body: %s", resp.StatusCode, buf.String())
	}
	return chaos.ServiceTypedError, ""
}

// expectTypedError issues a hostile request and additionally pins the
// exact status and error kind the taxonomy promises for it.
func expectTypedError(url, body string, wantStatus int, wantKind ErrKind) (chaos.ServiceVerdict, string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return chaos.ServiceViolation, "transport error: " + err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return chaos.ServiceViolation, "read body: " + err.Error()
	}
	// Under load the admission queue may bounce the request before it is
	// parsed — overload/draining are legal answers to any request.
	var e Error
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Kind == "" {
		return chaos.ServiceViolation,
			fmt.Sprintf("status %d with untyped body: %s", resp.StatusCode, buf.String())
	}
	if e.Kind == ErrOverload || e.Kind == ErrDraining {
		return chaos.ServiceTypedError, ""
	}
	if resp.StatusCode != wantStatus || e.Kind != wantKind {
		return chaos.ServiceViolation,
			fmt.Sprintf("got %d/%s, want %d/%s", resp.StatusCode, e.Kind, wantStatus, wantKind)
	}
	return chaos.ServiceTypedError, ""
}
