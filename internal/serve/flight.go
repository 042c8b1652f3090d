package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RequestSummary is one flight-recorder entry: the always-on,
// bounded-memory record of a recent request that /debugz/requests and
// `heliosctl triage` serve. Unlike traces it exists even with telemetry
// off — the flight recorder is the first stop of an incident triage,
// the trace (when the sampler retained one) is the deep link.
type RequestSummary struct {
	// Seq is the recorder-unique monotonic sequence number; `heliosctl
	// triage -follow` polls with after=<last seen Seq>.
	Seq uint64 `json:"seq"`
	// TimeUnixUS is the request's arrival wall-clock (unix µs).
	TimeUnixUS int64  `json:"time_unix_us"`
	Method     string `json:"method"`
	Path       string `json:"path"`
	// Workload/Mode are filled by handlers that resolve one (empty for
	// suite/diff/malformed requests).
	Workload string `json:"workload,omitempty"`
	Mode     string `json:"mode,omitempty"`
	// Outcome is "ok" or the typed error kind ("overload", "engine-fault",
	// "panic", ...) — same vocabulary as the trace outcome attribute.
	Outcome string `json:"outcome"`
	// Cache is the result-cache verdict: "hit", "miss", "coalesced" or
	// empty for requests that never touched the cache.
	Cache string `json:"cache,omitempty"`
	// DurUS is the request wall time in microseconds, admission to
	// response (rejected requests measure the rejection path).
	DurUS int64 `json:"dur_us"`
	// Sampled reports the tail sampler's verdict; Policy names the
	// deciding policy. With telemetry off both stay zero values.
	Sampled bool   `json:"sampled,omitempty"`
	Policy  string `json:"policy,omitempty"`
	// TraceID is set only when the trace was retained — it resolves via
	// GET /tracez?id=<TraceID> until evicted.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// DefaultFlightSize is the flight-recorder capacity when
// Config.FlightSize is 0.
const DefaultFlightSize = 256

// flightRecorder is a fixed-capacity ring of request summaries. Entries
// are value structs in a preallocated slice — recording is two index
// ops and a struct copy under a mutex, cheap enough to stay always-on.
type flightRecorder struct {
	mu      sync.Mutex
	entries []RequestSummary
	cap     int
	next    uint64 // next Seq; entries hold Seq (next-len .. next-1]
}

func newFlightRecorder(capacity int) *flightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightSize
	}
	return &flightRecorder{entries: make([]RequestSummary, 0, capacity), cap: capacity}
}

// record assigns the summary its sequence number and appends it,
// overwriting the oldest entry when full.
func (f *flightRecorder) record(fs *RequestSummary) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	fs.Seq = f.next
	if len(f.entries) < f.cap {
		f.entries = append(f.entries, *fs)
		return
	}
	f.entries[int((fs.Seq-1)%uint64(f.cap))] = *fs
}

// snapshot returns the entries with Seq > after, oldest first, and the
// newest Seq recorded so far (0 when empty). after=0 returns the whole
// ring.
func (f *flightRecorder) snapshot(after uint64) (entries []RequestSummary, newest uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RequestSummary, 0, len(f.entries))
	lo := uint64(0)
	if n := uint64(len(f.entries)); f.next > n {
		lo = f.next - n
	}
	if after > lo {
		lo = after
	}
	for seq := lo + 1; seq <= f.next; seq++ {
		out = append(out, f.entries[int((seq-1)%uint64(f.cap))])
	}
	return out, f.next
}

// size reports how many entries are resident (≤ cap — the bound the
// chaos soak asserts is exact).
func (f *flightRecorder) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// flightKey threads the request's *RequestSummary through its context
// so handlers annotate it (workload, mode, cache verdict) the same way
// they annotate the trace.
type flightKey struct{}

func withFlight(ctx context.Context, fs *RequestSummary) context.Context {
	return context.WithValue(ctx, flightKey{}, fs)
}

// flightFrom returns the request's summary, or nil outside a request.
// Callers nil-check; the summary is goroutine-local until recorded.
func flightFrom(ctx context.Context) *RequestSummary {
	fs, _ := ctx.Value(flightKey{}).(*RequestSummary)
	return fs
}

// handleDebugRequests serves the flight recorder as JSON, newest-last.
// Filters: outcome=<kind|ok|error> (error = any non-ok), workload=,
// min_ms=<float>, after=<seq>, limit=<n>. The response carries
// next_after for -follow polling: the newest seq recorded, even when
// filters empty the page or after= names a seq this process never
// issued (a cursor kept across a restart), so a client that adopts it
// resyncs.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, &Error{Kind: ErrBadRequest, Msg: "bad after: " + err.Error()})
			return
		}
		after = n
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, &Error{Kind: ErrBadRequest, Msg: "bad limit: " + v})
			return
		}
		limit = n
	}
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, &Error{Kind: ErrBadRequest, Msg: "bad min_ms: " + v})
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	outcome := q.Get("outcome")
	workload := q.Get("workload")

	all, newest := s.flight.snapshot(after)
	entries := make([]RequestSummary, 0, len(all))
	for _, e := range all {
		switch outcome {
		case "", e.Outcome:
		case "error":
			if e.Outcome == "ok" {
				continue
			}
		default:
			continue
		}
		if workload != "" && e.Workload != workload {
			continue
		}
		if minDur > 0 && time.Duration(e.DurUS)*time.Microsecond < minDur {
			continue
		}
		entries = append(entries, e)
	}
	if limit > 0 && len(entries) > limit {
		entries = entries[len(entries)-limit:]
	}
	writeJSON(w, http.StatusOK, struct {
		Requests  []RequestSummary `json:"requests"`
		NextAfter uint64           `json:"next_after"`
	}{entries, newest})
}
