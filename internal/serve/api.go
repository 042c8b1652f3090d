// Package serve implements heliosd: simulation-as-a-service over
// HTTP+JSON, engineered robustness-first. Every result is identified by
// a content hash of (workload, machine config, budget, engine version)
// and cached in the core suite, so repeat requests are pure cache hits,
// identical in-flight misses share one computation, and distinct
// requests for one workload share its record phase.
//
// The robustness layer is the contract (DESIGN.md §14): a bounded
// admission queue that rejects overload with a typed 429 carrying a
// retry-after hint, per-request deadlines propagated as context into the
// engine with partial-work cancellation, per-request panic isolation
// that converts faults into structured JSON instead of process death,
// graceful degradation of corrupt cached recordings to a single live
// re-emulation, and graceful drain on shutdown.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"helios/internal/ooo"
)

// RunRequest asks for one workload under one fusion mode. The zero
// values of the optional fields select the server's defaults.
type RunRequest struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode,omitempty"`  // fusion mode name; default Helios
	Insts    uint64 `json:"insts,omitempty"` // instruction budget; 0 = server default
	// DeadlineMs bounds this request's wall time; the server clamps it
	// to its configured maximum. 0 = the server's default deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Config optionally overrides the whole machine description. When
	// set, Mode is taken from the config; the result is cached under the
	// full config, so a config equal to a mode's default shares that
	// mode's result.
	Config *ooo.Config `json:"config,omitempty"`
	// Obs requests a per-run observability artifact: "pipeview" (Konata
	// O3PipeView), "events" (NDJSON pipeline events) or "interval"
	// (interval-sampled CSV). An observed run replays off the suite's
	// record-once trace outside the result cache — the artifact is a
	// side effect, not a cacheable value — and replay determinism makes
	// the payload byte-identical to heliossim's for the same
	// workload/config/budget.
	Obs string `json:"obs,omitempty"`
	// ObsInterval is the sampler period for obs:"interval", in simulated
	// cycles (0 = the server default).
	ObsInterval uint64 `json:"obs_interval,omitempty"`
}

// Artifact is the captured observability stream of an obs run. Exactly
// one of Data and Path is set: inline base64 by default, or a
// server-side file when the server is configured with an artifact
// directory. SHA256 covers the raw bytes either way, so clients can
// verify integrity and replay determinism without re-downloading.
type Artifact struct {
	Kind     string `json:"kind"`               // pipeview | events | interval
	Encoding string `json:"encoding"`           // base64 | file
	Bytes    int    `json:"bytes"`              // raw payload size
	SHA256   string `json:"sha256"`             // hex digest of the raw bytes
	Data     string `json:"data,omitempty"`     // base64 payload (encoding=base64)
	Path     string `json:"path,omitempty"`     // server-side path (encoding=file)
	Manifest string `json:"manifest,omitempty"` // matching manifest path, when manifests are on
}

// RunResponse is one simulation result plus its service identity.
type RunResponse struct {
	Key       string    `json:"key"` // content address of the result
	Workload  string    `json:"workload"`
	Mode      string    `json:"mode"`
	Insts     uint64    `json:"insts"`               // resolved budget
	Engine    string    `json:"engine"`              // engine version baked into the key
	Cached    bool      `json:"cached"`              // pure content-cache hit
	Coalesced bool      `json:"coalesced,omitempty"` // waited on an identical in-flight run
	IPC       float64   `json:"ipc"`
	Stats     ooo.Stats `json:"stats"`
	// Artifact carries the captured obs stream for requests with an obs
	// field.
	Artifact *Artifact `json:"artifact,omitempty"`
}

// SuiteRequest asks for a workload×mode matrix in one call; the server
// fans it across the suite scheduler.
type SuiteRequest struct {
	Workloads  []string `json:"workloads"`
	Modes      []string `json:"modes,omitempty"` // default: all six configurations
	Insts      uint64   `json:"insts,omitempty"`
	DeadlineMs int64    `json:"deadline_ms,omitempty"`
}

// SuiteCell is one cell of a suite response: a result summary or a
// typed per-cell error (one bad cell does not fail the matrix).
type SuiteCell struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"`
	IPC      float64 `json:"ipc,omitempty"`
	Cycles   uint64  `json:"cycles,omitempty"`
	Insts    uint64  `json:"insts,omitempty"` // committed instructions
	Error    *Error  `json:"error,omitempty"`
}

// SuiteResponse is the matrix in request order.
type SuiteResponse struct {
	Engine string      `json:"engine"`
	Budget uint64      `json:"budget"` // resolved instruction budget
	Cells  []SuiteCell `json:"cells"`
}

// DiffRequest asks for a differential report: the named workloads under
// a baseline and a target fusion mode, rendered by internal/report.
type DiffRequest struct {
	Workloads    []string `json:"workloads"`
	BaselineMode string   `json:"baseline_mode"`
	TargetMode   string   `json:"target_mode"`
	Insts        uint64   `json:"insts,omitempty"`
	DeadlineMs   int64    `json:"deadline_ms,omitempty"`
}

// DiffResponse carries the rendered report in both formats.
type DiffResponse struct {
	Engine   string `json:"engine"`
	Markdown string `json:"markdown"`
	CSV      string `json:"csv"`
}

// ErrKind is the machine-readable error taxonomy of the service. Every
// non-200 response body is an Error with one of these kinds, so clients
// branch on the kind, never on message text.
type ErrKind string

const (
	// ErrBadRequest: malformed JSON, unknown workload or mode, or an
	// out-of-range parameter. Not retryable.
	ErrBadRequest ErrKind = "bad-request"
	// ErrOversized: the request body exceeded the server's byte limit.
	// Not retryable as-is.
	ErrOversized ErrKind = "oversized"
	// ErrOverload: the bounded admission queue is full. Retryable after
	// the RetryAfterMs hint.
	ErrOverload ErrKind = "overload"
	// ErrDraining: the server is shutting down and no longer admits
	// work. Retryable against another replica, after RetryAfterMs.
	ErrDraining ErrKind = "draining"
	// ErrDeadline: the request's deadline expired before the simulation
	// finished; partial work was cancelled. Retryable with a larger
	// deadline (or smaller budget).
	ErrDeadline ErrKind = "deadline"
	// ErrCanceled: the client went away mid-request.
	ErrCanceled ErrKind = "canceled"
	// ErrNotFound: the referenced resource does not exist — e.g. a
	// /tracez?id= for a trace the sampler dropped or the ring evicted.
	// Not retryable.
	ErrNotFound ErrKind = "not-found"
	// ErrEngine: the simulation engine faulted; Engine carries the full
	// structured *ooo.SimError crash dump. Retryable — the degradation
	// path repairs corrupt recordings, so a retry usually succeeds.
	ErrEngine ErrKind = "engine-fault"
	// ErrInternal: a recovered handler panic or unclassified failure.
	ErrInternal ErrKind = "internal"
)

// Error is the typed failure envelope. It implements error so the
// server's internals can return it through ordinary error plumbing.
type Error struct {
	Kind ErrKind `json:"kind"`
	Msg  string  `json:"msg"`
	// RetryAfterMs is the server's backoff hint for retryable kinds
	// (overload, draining). heliosctl uses it as the backoff floor.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Engine is the structured *ooo.SimError crash dump for
	// engine-fault errors.
	Engine json.RawMessage `json:"engine,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Kind, e.Msg)
}

// HTTPStatus maps the error taxonomy onto HTTP status codes.
func (e *Error) HTTPStatus() int {
	switch e.Kind {
	case ErrBadRequest:
		return 400
	case ErrOversized:
		return 413
	case ErrOverload:
		return 429
	case ErrDraining:
		return 503
	case ErrDeadline:
		return 504
	case ErrCanceled:
		return 499 // client closed request (nginx convention)
	case ErrNotFound:
		return 404
	default:
		return 500
	}
}

// Retryable reports whether a client should retry this error kind
// (possibly against another replica).
func (e *Error) Retryable() bool {
	switch e.Kind {
	case ErrOverload, ErrDraining, ErrEngine, ErrInternal:
		return true
	}
	return false
}

// resultKey computes the content address of a fully resolved request:
// SHA-256 over the canonical JSON of (workload, machine config, budget,
// engine version). Config marshals its fields in declaration order and
// excludes per-run wiring (Obs is json:"-"), so the bytes — and the key
// — are deterministic. Identical requests are therefore pure cache
// hits, and any change to workload, machine, budget or engine yields a
// different key by construction.
func resultKey(workload string, cfg ooo.Config, budget uint64, engine string) (string, error) {
	b, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Config   ooo.Config `json:"config"`
		Budget   uint64     `json:"budget"`
		Engine   string     `json:"engine"`
	}{workload, cfg, budget, engine})
	if err != nil {
		//helios:errtaxonomy-ok classified to a kinded ErrInternal at the handleRun boundary, never written raw
		return "", fmt.Errorf("serve: hash request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
