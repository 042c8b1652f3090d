package telemetry

import "helios/internal/stats"

// Exemplar links one histogram observation back to the trace that
// produced it — the OpenMetrics bridge from a /metricz bucket to a
// /tracez trace. Value is the observed sample in the histogram's base
// unit (heliosd: microseconds); TSUnixUS is the capture wall-clock in
// unix microseconds (exposition renders seconds).
type Exemplar struct {
	TraceID  uint64
	Value    uint64
	TSUnixUS int64
}

// Histogram is a stats.Histogram that carries its own exemplars: one
// slot per histogram bucket, latest observation wins. The zero value is
// ready to use and copies by value, mirroring stats.Histogram. Callers
// synchronize: the tracer observes under its own mutex, serve under
// s.mu.
type Histogram struct {
	stats.Histogram
	Exemplars [stats.NumHistBuckets]Exemplar
}

// Observe folds v into the histogram and, when traceID is nonzero,
// makes it the exemplar of v's bucket. A zero traceID (no trace, or one
// the sampler dropped) records the value only, so untraced observations
// never produce dangling exemplars.
func (h *Histogram) Observe(v, traceID uint64, tsUnixUS int64) {
	h.Histogram.Observe(v)
	if traceID != 0 {
		h.Exemplars[stats.HistBucketOf(v)] = Exemplar{TraceID: traceID, Value: v, TSUnixUS: tsUnixUS}
	}
}

// KeepExemplars clears every exemplar whose trace keep rejects. heliosd
// passes Tracer.Retained, so each exemplar left resolves via /tracez.
func (h *Histogram) KeepExemplars(keep func(traceID uint64) bool) {
	for i, ex := range h.Exemplars {
		if ex.TraceID != 0 && !keep(ex.TraceID) {
			h.Exemplars[i] = Exemplar{}
		}
	}
}

// newestExemplar returns the newest exemplar in bucket slots [lo, hi].
// Exposition uses it to collapse the underlying fine buckets onto the
// strided `le` bounds.
func (h *Histogram) newestExemplar(lo, hi int) (Exemplar, bool) {
	var best Exemplar
	found := false
	for _, ex := range h.Exemplars[lo : hi+1] {
		if ex.TraceID != 0 && (!found || ex.TSUnixUS >= best.TSUnixUS) {
			best, found = ex, true
		}
	}
	return best, found
}
