package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"helios/internal/core"
	"helios/internal/telemetry"
)

// metricsSnapshot is one consistent read of every counter source
// /metricz renders.
type metricsSnapshot struct {
	traced       bool // telemetry is on, so the tracing families exist
	draining     bool
	inflight     int
	maxInflight  int
	queueDepth   int
	cacheEntries int
	warmEntries  int
	c            Counters
	latency      telemetry.Histogram
	suite        core.Metrics
	tracing      telemetry.Metrics
	sampling     telemetry.SamplingStats
	spans        []telemetry.NamedHistogram
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	snap := metricsSnapshot{
		traced:       s.tel != nil,
		cacheEntries: s.suite.CachedResults(),
		warmEntries:  s.warmEntries,
		suite:        s.suite.Metrics(),
		tracing:      s.tel.Metrics(),
		sampling:     s.tel.Sampling(),
		spans:        s.tel.Histograms(),
	}
	s.mu.Lock()
	snap.draining = s.draining
	snap.inflight = s.inflight
	snap.maxInflight = s.maxInflight
	snap.queueDepth = s.cfg.QueueDepth
	snap.c = s.c
	snap.latency = s.latency
	s.mu.Unlock()
	// Only exemplars of traces the ring still holds survive, so every
	// trace_id the exposition emits resolves via /tracez?id=.
	snap.latency.KeepExemplars(s.tel.Retained)
	for i := range snap.spans {
		snap.spans[i].Hist.KeepExemplars(s.tel.Retained)
	}
	return snap
}

// families is the /metricz table: every metric heliosd exports,
// declared once, in exposition order. Both forms render from it, and
// the tracing families exist only with telemetry on. The naming
// convention is DESIGN.md §15's.
func (m *metricsSnapshot) families() []telemetry.Family {
	c, sm := m.c, m.suite
	fams := []telemetry.Family{
		telemetry.Counter("heliosd_requests_admitted", "Requests admitted past the bounded queue.", c.Admitted),
		{Name: "heliosd_requests_rejected", Type: "counter", Help: "Requests refused at admission, by reason.",
			Label: "reason", Series: []telemetry.Series{
				{LabelValue: "overload", Value: c.RejectedOverload},
				{LabelValue: "draining", Value: c.RejectedDraining},
			}},
		{Name: "heliosd_requests_failed", Type: "counter", Help: "Admitted requests that failed, by error kind.",
			Label: "kind", Series: []telemetry.Series{
				{LabelValue: "bad_request", Value: c.BadRequests},
				{LabelValue: "oversized", Value: c.Oversized},
				{LabelValue: "deadline", Value: c.DeadlineExpired},
				{LabelValue: "canceled", Value: c.Canceled},
				{LabelValue: "engine_fault", Value: c.EngineFaults},
			}},
		telemetry.Counter("heliosd_requests_completed", "Requests that returned 200.", c.Completed),
		telemetry.Counter("heliosd_panics_recovered", "Handler panics converted to structured 500s.", c.PanicsRecovered),
		telemetry.Counter("heliosd_manifests_written", "Per-run manifests written.", c.ManifestsWritten),
		telemetry.Counter("heliosd_manifest_errors", "Manifest writes that failed.", c.ManifestErrors),
		telemetry.Gauge("heliosd_draining", "1 while the server refuses new work.", b2u(m.draining)),
		telemetry.Gauge("heliosd_inflight_requests", "Requests currently admitted.", uint64(m.inflight)),
		telemetry.Gauge("heliosd_inflight_requests_max", "Admission high-water mark.", uint64(m.maxInflight)),
		telemetry.Gauge("heliosd_queue_depth", "Configured admission bound.", uint64(m.queueDepth)),
		telemetry.Gauge("heliosd_cache_entries", "Results resident in the result cache.", uint64(m.cacheEntries)),
		telemetry.Gauge("heliosd_cache_warm_entries", "Results restored from the manifest directory at boot.", uint64(m.warmEntries)),
		telemetry.Counter("heliosd_cache_hits", "Result-cache hits.", c.CacheHits),
		telemetry.Counter("heliosd_cache_misses", "Result-cache misses.", c.CacheMisses),
		telemetry.Counter("heliosd_cache_coalesced", "Requests that waited on an identical in-flight run.", c.CacheCoalesced),
		telemetry.Counter("heliosd_suite_trace_hits", "Record-once trace cache hits.", sm.TraceHits),
		telemetry.Counter("heliosd_suite_trace_misses", "Record-once trace cache misses.", sm.TraceMisses),
		telemetry.Counter("heliosd_suite_replays", "Replay runs off cached recordings.", sm.Replays),
		telemetry.Counter("heliosd_suite_pipeline_runs", "Full pipeline simulations.", sm.PipelineRuns),
		telemetry.Counter("heliosd_suite_deduped_runs", "Suite runs deduplicated by singleflight.", sm.DedupedRuns),
		telemetry.Counter("heliosd_suite_live_fallbacks", "Corrupt recordings degraded to live re-emulation.", sm.LiveFallbacks),
		{Name: "heliosd_request_duration_microseconds", Type: "histogram", Help: "Completed-request wall time.",
			Series: []telemetry.Series{{Hist: &m.latency}}},
	}
	if !m.traced {
		return fams
	}
	t := m.tracing
	spans := make([]telemetry.Series, len(m.spans))
	for i := range m.spans {
		spans[i] = telemetry.Series{LabelValue: m.spans[i].Name, Hist: &m.spans[i].Hist}
	}
	return append(fams,
		telemetry.Counter("heliosd_traces_started", "Request traces started.", t.TracesStarted),
		telemetry.Counter("heliosd_traces_finished", "Request traces finished.", t.TracesFinished),
		telemetry.Counter("heliosd_spans_started", "Spans started.", t.SpansStarted),
		telemetry.Counter("heliosd_spans_ended", "Spans ended.", t.SpansEnded),
		telemetry.Counter("heliosd_span_double_ends", "Duplicate span Ends (contract violations).", t.SpanDoubleEnds),
		telemetry.Counter("heliosd_spans_dropped", "Spans dropped on finished traces.", t.SpansDropped),
		telemetry.Counter("heliosd_trace_ring_evicted", "Finished traces evicted from the /tracez ring.", t.RingEvicted),
		telemetry.Counter("heliosd_trace_export_errors", "Trace files that could not be created or written.", c.TraceExportErrors),
		telemetry.Counter("heliosd_traces_sampled_kept", "Finished traces the tail sampler kept.", t.SampledKept),
		telemetry.Counter("heliosd_traces_sampled_dropped", "Finished traces the tail sampler dropped.", t.SampledDropped),
		telemetry.Family{Name: "heliosd_trace_ring_admitted", Type: "counter", Help: "Ring admissions by deciding sampling policy.",
			Label: "policy", Series: policySeries(m.sampling.KeptByPolicy)},
		telemetry.Family{Name: "heliosd_trace_ring_evictions", Type: "counter", Help: "Ring evictions by the evicted trace's admitting policy.",
			Label: "policy", Series: policySeries(m.sampling.EvictedByPolicy)},
		telemetry.Gauge("heliosd_trace_ring_retained", "Finished traces currently retained for /tracez.", uint64(m.sampling.Retained)),
		telemetry.Family{Name: "heliosd_span_duration_microseconds", Type: "histogram", Help: "Span wall time, labeled by span name.",
			Label: "span", Series: spans},
	)
}

// policySeries labels per-policy sampling counts, already sorted by
// policy name (Tracer.Sampling guarantees it).
func policySeries(rows []telemetry.PolicyCount) []telemetry.Series {
	out := make([]telemetry.Series, len(rows))
	for i, r := range rows {
		out[i] = telemetry.Series{LabelValue: r.Policy, Value: r.Count}
	}
	return out
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// wantOpenMetrics picks the /metricz form. An explicit ?format= wins:
// "json" or "openmetrics", and anything else is a typed 400, so a
// misspelled format never silently yields a different syntax. Without
// one, an Accept header naming application/openmetrics-text at a
// nonzero quality — as every Prometheus scrape's does — selects
// OpenMetrics, and anything else gets JSON. q=0 means "not acceptable"
// (RFC 9110), and a malformed q voids its element.
func wantOpenMetrics(format, accept string) (bool, *Error) {
	switch format {
	case "json":
		return false, nil
	case "openmetrics":
		return true, nil
	case "":
	default:
		return false, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown format %q (want json or openmetrics)", format)}
	}
	for _, elem := range strings.Split(accept, ",") {
		mediaType, params, _ := strings.Cut(elem, ";")
		if !strings.EqualFold(strings.TrimSpace(mediaType), "application/openmetrics-text") {
			continue
		}
		q := 1.0
		for _, p := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				q, _ = strconv.ParseFloat(v, 64) // malformed parses as 0
			}
		}
		if q > 0 {
			return true, nil
		}
	}
	return false, nil
}

// handleMetricz renders the metrics table in the form wantOpenMetrics
// picks: OpenMetrics 1.0.0, whose histogram buckets carry trace
// exemplars when telemetry is on, or the flat JSON document.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	om, e := wantOpenMetrics(r.URL.Query().Get("format"), r.Header.Get("Accept"))
	if e != nil {
		writeError(w, e)
		return
	}
	snap := s.snapshotMetrics()
	fams := snap.families()
	if !om {
		writeJSON(w, http.StatusOK, telemetry.MetricsJSON(fams))
		return
	}
	w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
	if err := telemetry.WriteOpenMetrics(w, fams); err != nil {
		s.logf("serve: openmetrics exposition: %v", err)
	}
}
