// Command heliosd serves the simulation engine as a long-running
// HTTP+JSON service with a robustness-first envelope: content-addressed
// result caching with in-flight deduplication, a bounded admission
// queue with typed 429s, per-request deadlines, panic isolation,
// graceful degradation of corrupt cached recordings, and a clean
// SIGTERM drain.
//
// Usage:
//
//	heliosd -addr :8080
//	heliosd -addr :8080 -queue 32 -deadline 15s -insts 100000
//	heliosd -addr :8080 -manifest-dir /var/lib/helios/manifests -trace-dir /var/lib/helios/traces
//
// What heliosd keeps about finished requests:
//
//   - The flight recorder lists the last 256 requests, with telemetry
//     on or off (/debugz/requests, heliosctl triage).
//   - With -telemetry (the default) every request is traced, and the
//     tail sampler keeps errors, p99 outliers, record/degrade traces,
//     a 25/s budget and a seeded 1% floor. /tracez serves up to 64 kept
//     traces, evicting the lowest priority first; -trace-dir also writes
//     each kept trace there as a Chrome trace-event file.
//   - -manifest-dir receives a manifest per completed run, and the next
//     boot on the same directory warms the result cache from it.
//
// Endpoints:
//
//	POST /v1/run           one workload×config simulation (obs field → artifact)
//	POST /v1/suite         a workload×mode matrix
//	POST /v1/diff          a rendered differential report
//	GET  /v1/workloads     the registered workload catalogue
//	GET  /healthz /readyz  liveness and readiness
//	GET  /metricz          JSON, or OpenMetrics with trace exemplars (?format=openmetrics)
//	GET  /tracez           retained traces (?id= for one — the exemplar deep link)
//	GET  /debugz/requests  the flight recorder (heliosctl triage reads this)
//
// On SIGTERM/SIGINT the server stops admitting work (503 draining),
// finishes every in-flight request within -drain, flushes manifests,
// and exits 0. A second signal aborts immediately with exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"helios/internal/core"
	"helios/internal/serve"
)

func main() {
	def := serve.DefaultConfig()
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", def.QueueDepth, "admission queue depth (concurrent requests before typed 429s)")
		deadline    = flag.Duration("deadline", def.DefaultDeadline, "default per-request deadline when the client sends none")
		maxDeadline = flag.Duration("max-deadline", def.MaxDeadline, "clamp on client-supplied deadlines")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM")
		maxBody     = flag.Int64("max-body", def.MaxBodyBytes, "request body byte limit (typed 413 beyond)")
		insts       = flag.Uint64("insts", 0, "default instruction budget (0 = each workload's own)")
		workers     = flag.Int("workers", 0, "suite-endpoint scheduler workers (0 = GOMAXPROCS)")
		manifestDir = flag.String("manifest-dir", "", "write a JSON manifest per completed run into this directory, and warm the result cache from it at boot")
		retryAfter  = flag.Duration("retry-after", def.RetryAfter, "backoff hint attached to overload/draining rejections")
		telemetry   = flag.Bool("telemetry", true, "per-request span tracing with tail sampling (GET /tracez, span histograms on /metricz); off, every hook is a zero-allocation no-op")
		traceDir    = flag.String("trace-dir", "", "write one Chrome trace-event JSON file per trace the tail sampler keeps into this directory (needs -telemetry)")
		artifactDir = flag.String("artifact-dir", "", "write /v1/run obs artifacts as files here instead of inline base64")
	)
	flag.Parse()
	if *traceDir != "" && !*telemetry {
		fmt.Fprintln(os.Stderr, "heliosd: -trace-dir needs -telemetry: with telemetry off no trace is ever kept")
		os.Exit(2)
	}
	cfg := serve.Config{
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
		MaxBodyBytes:    *maxBody,
		DefaultInsts:    *insts,
		SuiteWorkers:    *workers,
		ManifestDir:     *manifestDir,
		Telemetry:       *telemetry,
		TraceDir:        *traceDir,
		ArtifactDir:     *artifactDir,
		Logf:            logf,
	}
	if err := run(*addr, *drain, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "heliosd:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, time.Now().UTC().Format("2006-01-02T15:04:05.000Z")+" "+format+"\n", args...)
}

func run(addr string, drainBudget time.Duration, cfg serve.Config) error {
	for _, d := range []struct{ name, path string }{
		{"manifest dir", cfg.ManifestDir},
		{"trace dir", cfg.TraceDir},
		{"artifact dir", cfg.ArtifactDir},
	} {
		if d.path == "" {
			continue
		}
		if err := os.MkdirAll(d.path, 0o755); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}

	// Cancelled on the first SIGTERM/SIGINT, which starts the drain.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	s := serve.New(context.Background(), cfg)
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logf("heliosd %s listening on %s (queue=%d deadline=%s)",
		core.EngineVersion(), addr, cfg.QueueDepth, cfg.DefaultDeadline)

	select {
	case err := <-errc:
		return fmt.Errorf("listen on %s: %w", addr, err)
	case <-sigCtx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills us

	logf("signal received; draining (budget %s)", drainBudget)
	dctx, dcancel := context.WithTimeout(context.Background(), drainBudget)
	defer dcancel()
	drainErr := s.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	c := s.Counters()
	logf("drained clean: %d admitted, %d completed, %d manifests; exiting 0",
		c.Admitted, c.Completed, c.ManifestsWritten)
	return nil
}
