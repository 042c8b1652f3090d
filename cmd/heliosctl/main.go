// Command heliosctl is the heliosd client. It speaks the typed error
// taxonomy: the kinds serve.Error.Retryable accepts (overload, draining,
// engine-fault, internal), untyped 429/5xx responses and transport
// errors are retried with exponential backoff plus jitter, honouring the
// server's Retry-After hint as the backoff floor; every other failure,
// including a 504 deadline that would only time out again, is reported
// immediately.
//
// Usage:
//
//	heliosctl [-server http://localhost:8080] <command> [flags]
//
//	run       -workload crc32 [-mode Helios] [-insts N] [-deadline-ms N]
//	          [-obs pipeview|events|interval [-obs-interval N] [-obs-out file]]
//	suite     -workloads crc32,sha [-modes NoFusion,Helios] [-insts N]
//	diff      -workloads crc32,sha -baseline NoFusion -target Helios [-csv]
//	workloads
//	health    [-wait 30s]   poll /healthz until the server answers
//	ready
//	metrics   [-watch 2s [-count N]] [-om [-lint]]
//	trace     [-id N] [-out trace.json]   fetch /tracez (Perfetto-loadable)
//	triage    [-outcome error] [-workload W] [-min-ms 50] [-limit N]
//	          [-follow 2s] [-json]   read the flight recorder
//	raw       -path /v1/run -body '{"workload":"crc32"}' [-expect 200]
//
// triage is the incident entry point: it reads heliosd's always-on
// flight recorder (/debugz/requests), filters to the interesting
// requests, and prints one line per request including the retained
// trace id — which `heliosctl trace -id N` then fetches. metrics -om
// fetches the OpenMetrics exposition whose histogram buckets carry
// exemplars deep-linking into the same traces; with -lint, every
// exemplar's trace_id is verified to resolve against /tracez.
//
// raw sends an arbitrary body without retries — the smoke harness uses
// it to assert the typed 400/413 responses for hostile requests.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"helios/internal/serve"
	"helios/internal/telemetry"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "heliosctl: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	server := flag.String("server", "http://localhost:8080", "heliosd base URL")
	retries := flag.Int("retries", 5, "max retries for retryable failures (overload, draining, engine-fault, internal, transport)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: heliosctl [-server URL] {run|suite|diff|workloads|health|ready|metrics|trace|triage|raw} [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*server, "/"), retries: *retries}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "run":
		cmdRun(c, args)
	case "suite":
		cmdSuite(c, args)
	case "diff":
		cmdDiff(c, args)
	case "workloads":
		emit(c.getRetry("/v1/workloads"))
	case "health":
		cmdHealth(c, args)
	case "ready":
		emit(c.get("/readyz"))
	case "metrics":
		cmdMetrics(c, args)
	case "trace":
		cmdTrace(c, args)
	case "triage":
		cmdTriage(c, args)
	case "raw":
		cmdRaw(c, args)
	default:
		fatalf("unknown command %q", cmd)
	}
}

// client wraps the retry policy around heliosd's API.
type client struct {
	base    string
	retries int
}

// backoff computes the attempt's sleep: exponential from 100ms, capped
// at 5s, with ±25% jitter, floored at the server's retry-after hint.
func backoff(attempt int, floor time.Duration, rng *rand.Rand) time.Duration {
	d := 100 * time.Millisecond << uint(attempt)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	// jitter in [0.75, 1.25): desynchronizes a fleet of retrying clients
	d = time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
	if d < floor {
		d = floor
	}
	return d
}

// retryAfterHint extracts the server's backoff floor from a typed error
// body (retry_after_ms) or the Retry-After header.
func retryAfterHint(resp *http.Response, e *serve.Error) time.Duration {
	if e.RetryAfterMs > 0 {
		return time.Duration(e.RetryAfterMs) * time.Millisecond
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// do sends one request with the retry policy. Success and terminal
// failures return immediately; retryable ones (see once) retry with
// backoff.
func (c *client) do(method, path string, body []byte) (int, []byte) {
	rng := rand.New(rand.NewPCG(uint64(os.Getpid()), uint64(time.Now().UnixNano())))
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, respBody, retryable, hint, err := c.once(method, path, body)
		if err == nil && !retryable {
			return status, respBody
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(respBody))
		}
		if attempt >= c.retries {
			fatalf("%s %s failed after %d attempts: %v", method, path, attempt+1, lastErr)
		}
		d := backoff(attempt, hint, rng)
		fmt.Fprintf(os.Stderr, "heliosctl: retryable failure (%v); retry %d/%d in %s\n",
			lastErr, attempt+1, c.retries, d.Round(time.Millisecond))
		time.Sleep(d)
	}
}

// once sends one request and classifies its failure. Transport errors
// and untyped 429/5xx responses (from a proxy, say) are retryable; a
// typed error body decides by its kind, so a 504 deadline, which would
// only time out again, is not.
func (c *client) once(method, path string, body []byte) (status int, respBody []byte, retryable bool, hint time.Duration, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, true, 0, err // transport error: retryable
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, true, 0, err
	}
	retryable = resp.StatusCode == 429 || resp.StatusCode >= 500
	var e serve.Error
	if retryable && json.Unmarshal(respBody, &e) == nil && e.Kind != "" {
		retryable = e.Retryable()
	}
	return resp.StatusCode, respBody, retryable, retryAfterHint(resp, &e), nil
}

func (c *client) post(path string, v any) (int, []byte) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode request: %v", err)
	}
	return c.do("POST", path, b)
}

func (c *client) getRetry(path string) (int, []byte) { return c.do("GET", path, nil) }

// get is a single non-retried GET (readiness probes must see the
// current answer, not a retried one).
func (c *client) get(path string) (int, []byte) {
	status, body, _, _, err := c.once("GET", path, nil)
	if err != nil {
		fatalf("GET %s: %v", path, err)
	}
	return status, body
}

// emit prints a response body and exits non-zero on a non-2xx status.
func emit(status int, body []byte) {
	os.Stdout.Write(append(bytes.TrimRight(body, "\n"), '\n'))
	if status < 200 || status > 299 {
		os.Exit(1)
	}
}

func cmdRun(c *client, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name (required)")
	mode := fs.String("mode", "", "fusion mode (default: server's)")
	insts := fs.Uint64("insts", 0, "instruction budget (0 = server default)")
	deadline := fs.Int64("deadline-ms", 0, "per-request deadline in ms (0 = server default)")
	obs := fs.String("obs", "", "request an observability artifact: pipeview, events or interval")
	obsInterval := fs.Uint64("obs-interval", 0, "interval sampler period in simulated cycles for -obs interval (0 = server default)")
	obsOut := fs.String("obs-out", "", "write the artifact payload to this file (with -obs)")
	fs.Parse(args)
	if *workload == "" {
		fatalf("run: -workload is required")
	}
	if *obsOut != "" && *obs == "" {
		fatalf("run: -obs-out requires -obs")
	}
	status, body := c.post("/v1/run", serve.RunRequest{
		Workload: *workload, Mode: *mode, Insts: *insts, DeadlineMs: *deadline,
		Obs: *obs, ObsInterval: *obsInterval,
	})
	if status != 200 || *obs == "" {
		emit(status, body)
		return
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		fatalf("decode run response: %v", err)
	}
	if rr.Artifact == nil {
		fatalf("run: server returned no artifact for -obs %s", *obs)
	}
	if *obsOut != "" {
		writeArtifact(rr.Artifact, *obsOut)
		// The payload is on disk; keep stdout to the run summary.
		rr.Artifact.Data = ""
	}
	out, err := json.Marshal(&rr)
	if err != nil {
		fatalf("encode run response: %v", err)
	}
	emit(status, out)
}

// writeArtifact materializes an obs artifact locally: inline base64
// payloads are decoded, file-encoded ones are copied from the
// server-side path (heliosctl and heliosd share a filesystem in that
// configuration). The digest is verified either way.
func writeArtifact(a *serve.Artifact, path string) {
	var data []byte
	var err error
	switch a.Encoding {
	case "base64":
		data, err = base64.StdEncoding.DecodeString(a.Data)
	case "file":
		data, err = os.ReadFile(a.Path)
	default:
		fatalf("unknown artifact encoding %q", a.Encoding)
	}
	if err != nil {
		fatalf("read artifact: %v", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != a.SHA256 {
		fatalf("artifact digest mismatch: got %s, server says %s", got, a.SHA256)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("write artifact: %v", err)
	}
	fmt.Fprintf(os.Stderr, "heliosctl: wrote %d-byte %s artifact to %s (sha256 verified)\n",
		len(data), a.Kind, path)
}

// cmdMetrics fetches /metricz once or in -watch mode, in JSON or
// OpenMetrics (-om) form; -lint runs the repo's exposition linter over
// the OpenMetrics text and fails on the first violation (the CI smoke
// job's promtool stand-in). The lint also resolves every exemplar's
// trace_id against /tracez?id=, so a dangling /metricz→/tracez deep
// link is an error.
func cmdMetrics(c *client, args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	watch := fs.Duration("watch", 0, "poll /metricz at this interval (0 = fetch once)")
	count := fs.Int("count", 0, "with -watch: stop after this many samples (0 = until interrupted)")
	om := fs.Bool("om", false, "fetch the OpenMetrics exposition (histogram buckets carry trace exemplars)")
	lint := fs.Bool("lint", false, "with -om: lint the exposition, fail on violations")
	fs.Parse(args)
	if *lint && !*om {
		fatalf("metrics: -lint requires -om")
	}
	path := "/metricz?format=json"
	if *om {
		path = "/metricz?format=openmetrics"
	}
	resolve := func(traceID string) bool {
		st, _ := c.get("/tracez?id=" + url.QueryEscape(traceID))
		return st == 200
	}
	sample := func() {
		status, body := c.getRetry(path)
		if *lint && status == 200 {
			if err := telemetry.LintExposition(bytes.NewReader(body), resolve); err != nil {
				fatalf("metrics: exposition lint: %v", err)
			}
			fmt.Fprintln(os.Stderr, "heliosctl: exposition lint clean")
		}
		emit(status, body)
	}
	if *watch <= 0 {
		sample()
		return
	}
	for n := 0; *count == 0 || n < *count; n++ {
		if n > 0 {
			time.Sleep(*watch)
			fmt.Println()
		}
		sample()
	}
}

// cmdTrace fetches the server's retained span traces (GET /tracez) as
// Chrome trace-event JSON, to stdout or a file for Perfetto. -id
// narrows to the one trace a triage line or /metricz exemplar named.
func cmdTrace(c *client, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("out", "", "write the trace JSON to this file (default: stdout)")
	id := fs.Uint64("id", 0, "fetch only this trace id (0 = the whole retained ring)")
	fs.Parse(args)
	path := "/tracez"
	if *id != 0 {
		path += "?id=" + strconv.FormatUint(*id, 10)
	}
	status, body := c.getRetry(path)
	if status != 200 || *out == "" {
		emit(status, body)
		return
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		fatalf("write trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "heliosctl: wrote %d-byte trace to %s (open in Perfetto)\n", len(body), *out)
}

// cmdTriage reads heliosd's flight recorder (/debugz/requests): one
// line per recent request with outcome, cache verdict, duration,
// sampling verdict and — when the tail sampler retained the trace — the
// id `heliosctl trace -id` resolves. -follow turns it into a tail -f
// over the ring.
func cmdTriage(c *client, args []string) {
	fs := flag.NewFlagSet("triage", flag.ExitOnError)
	outcome := fs.String("outcome", "", `filter: "ok", "error" (any failure), or one kind ("overload", "engine-fault", ...)`)
	workload := fs.String("workload", "", "filter by workload name")
	minMs := fs.Float64("min-ms", 0, "filter: only requests at least this slow")
	limit := fs.Int("limit", 0, "keep only the newest N matching entries (0 = all)")
	follow := fs.Duration("follow", 0, "poll for new entries at this interval (0 = fetch once)")
	jsonOut := fs.Bool("json", false, "print the raw JSON page instead of the line format")
	fs.Parse(args)
	q := url.Values{}
	if *outcome != "" {
		q.Set("outcome", *outcome)
	}
	if *workload != "" {
		q.Set("workload", *workload)
	}
	if *minMs > 0 {
		q.Set("min_ms", strconv.FormatFloat(*minMs, 'f', -1, 64))
	}
	if *limit > 0 {
		q.Set("limit", strconv.Itoa(*limit))
	}
	polls := 1
	if *follow > 0 {
		polls = 0
	}
	c.triage(os.Stdout, q, *follow, polls, *jsonOut)
}

// triage fetches polls pages of /debugz/requests (0 = forever), every
// apart, and prints each entry once. The cursor adopts whatever
// next_after the server returns: after a restart the server's seqs
// start over and it answers a stale cursor with its newest seq, so the
// client resyncs instead of waiting for a seq that never comes.
func (c *client) triage(w io.Writer, q url.Values, every time.Duration, polls int, jsonOut bool) {
	var after uint64
	for n := 0; polls == 0 || n < polls; n++ {
		if n > 0 {
			time.Sleep(every)
		}
		q.Del("after")
		if after > 0 {
			q.Set("after", strconv.FormatUint(after, 10))
		}
		status, body := c.getRetry("/debugz/requests?" + q.Encode())
		if status != 200 {
			emit(status, body)
			os.Exit(1)
		}
		var p struct {
			Requests  []serve.RequestSummary `json:"requests"`
			NextAfter uint64                 `json:"next_after"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			fatalf("triage: decode /debugz/requests: %v", err)
		}
		if jsonOut {
			if n == 0 || len(p.Requests) > 0 {
				w.Write(append(bytes.TrimRight(body, "\n"), '\n'))
			}
		} else {
			for _, e := range p.Requests {
				fmt.Fprintln(w, triageLine(e))
			}
		}
		after = p.NextAfter
	}
}

// triageLine renders one flight-recorder entry for humans; fields a
// request never touched print as "-".
func triageLine(e serve.RequestSummary) string {
	ts := time.UnixMicro(e.TimeUnixUS).UTC().Format("15:04:05.000")
	target := e.Workload
	if target != "" && e.Mode != "" {
		target += "/" + e.Mode
	}
	if target == "" {
		target = "-"
	}
	cache := e.Cache
	if cache == "" {
		cache = "-"
	}
	verdict := "-"
	if e.Policy != "" {
		if e.Sampled {
			verdict = "keep/" + e.Policy
		} else {
			verdict = "drop"
		}
	}
	trace := "-"
	if e.TraceID != 0 {
		trace = strconv.FormatUint(e.TraceID, 10)
	}
	return fmt.Sprintf("#%-5d %s %-4s %-14s %-20s %-13s cache=%-9s %9.2fms %-12s trace=%s",
		e.Seq, ts, e.Method, e.Path, target, e.Outcome, cache, float64(e.DurUS)/1000, verdict, trace)
}

func cmdSuite(c *client, args []string) {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	wls := fs.String("workloads", "", "comma-separated workload names (required)")
	modes := fs.String("modes", "", "comma-separated fusion modes (default: all)")
	insts := fs.Uint64("insts", 0, "instruction budget (0 = server default)")
	deadline := fs.Int64("deadline-ms", 0, "per-request deadline in ms")
	fs.Parse(args)
	if *wls == "" {
		fatalf("suite: -workloads is required")
	}
	emit(c.post("/v1/suite", serve.SuiteRequest{
		Workloads: splitList(*wls), Modes: splitList(*modes),
		Insts: *insts, DeadlineMs: *deadline,
	}))
}

func cmdDiff(c *client, args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	wls := fs.String("workloads", "", "comma-separated workload names (required)")
	baseline := fs.String("baseline", "NoFusion", "baseline fusion mode")
	target := fs.String("target", "Helios", "target fusion mode")
	insts := fs.Uint64("insts", 0, "instruction budget (0 = server default)")
	deadline := fs.Int64("deadline-ms", 0, "per-request deadline in ms")
	csv := fs.Bool("csv", false, "print the CSV report instead of markdown")
	fs.Parse(args)
	if *wls == "" {
		fatalf("diff: -workloads is required")
	}
	status, body := c.post("/v1/diff", serve.DiffRequest{
		Workloads: splitList(*wls), BaselineMode: *baseline, TargetMode: *target,
		Insts: *insts, DeadlineMs: *deadline,
	})
	if status != 200 {
		emit(status, body)
		return
	}
	var dr serve.DiffResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		fatalf("decode diff response: %v", err)
	}
	if *csv {
		fmt.Print(dr.CSV)
	} else {
		fmt.Print(dr.Markdown)
	}
}

// cmdHealth polls /healthz until the server answers (with -wait) or
// reports the current answer once.
func cmdHealth(c *client, args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	wait := fs.Duration("wait", 0, "poll until the server is up, for at most this long")
	fs.Parse(args)
	if *wait <= 0 {
		emit(c.get("/healthz"))
		return
	}
	deadline := time.Now().Add(*wait)
	for {
		status, body, _, _, err := c.once("GET", "/healthz", nil)
		if err == nil && status == 200 {
			emit(status, body)
			return
		}
		if time.Now().After(deadline) {
			fatalf("server not healthy within %s (last: status %d, err %v)", wait, status, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// cmdRaw sends one arbitrary request with no retries and optionally
// asserts the status — the smoke harness's hostile-input probe.
func cmdRaw(c *client, args []string) {
	fs := flag.NewFlagSet("raw", flag.ExitOnError)
	path := fs.String("path", "/v1/run", "request path")
	body := fs.String("body", "", "request body (sent verbatim)")
	method := fs.String("method", "POST", "HTTP method")
	expect := fs.Int("expect", 0, "fail unless the response status matches (0 = accept any)")
	fs.Parse(args)
	status, respBody, _, _, err := c.once(*method, *path, []byte(*body))
	if err != nil {
		fatalf("raw %s %s: %v", *method, *path, err)
	}
	os.Stdout.Write(append(bytes.TrimRight(respBody, "\n"), '\n'))
	if *expect != 0 && status != *expect {
		fatalf("raw %s %s: status %d, expected %d", *method, *path, status, *expect)
	}
	if *expect == 0 && (status < 200 || status > 299) {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
