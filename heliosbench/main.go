// Command heliosbench is the repository's end-to-end benchmark. One run
// measures one named workload for a fixed time, checks the simulated
// outputs against golden digests, and prints one JSON line:
//
//	heliosbench --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the run also records spans around the program's public calls and
// reports per-layer metrics instead, writing its spans and a "where the
// host time goes" report under .bench_build/trace. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"helios/internal/experiments"
)

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	goldenOut string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	// notes are lines for the traced-run report: sample counts, the
	// percentile a tail metric reports, and anything else a reader needs
	// to interpret the numbers.
	notes []string
	spans []span
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations out of the attempted count.
func (o *outcome) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	o.failed += int64(n)
	o.notef("FAILED (%d): "+format, append([]any{n}, args...)...)
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minsts_per_s", "Minst/s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"knee_rps", "1/s"},
	{"ok_share", "share"},
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"record.busy_s", "s"}, {"record.count", "count"}, {"record.minsts_per_s", "Minst/s"},
		{"replay.busy_s", "s"}, {"replay.count", "count"}, {"replay.minsts_per_s", "Minst/s"},
		{"replay.mcycles_per_s", "Mcycle/s"}, {"replay.new_ms", "ms"}, {"replay.alloc_mb_per_minst", "MB/Minst"},
		{"sched.fanout_s", "s"}, {"sched.realized_x", "x"}, {"sched.serial_tail_s", "s"},
		{"core.trace_hits", "count"}, {"core.trace_misses", "count"}, {"core.trace_reuse_ratio", "share"},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"exp." + id + ".busy_s", "s"})
	}
	return append(defs, []metricDef{
		{"serve.hit_p50_ms", "ms"}, {"serve.hit_p99_ms", "ms"},
		{"serve.miss_p50_ms", "ms"}, {"serve.miss_p99_ms", "ms"}, {"serve.cold_p99_ms", "ms"},
		{"serve.hit_ratio", "share"}, {"serve.coalesced_share", "share"}, {"serve.batch_size_mean", "count"},
		{"serve.rejected_overload", "count"}, {"serve.max_inflight", "count"},
		{"obs.busy_s", "s"}, {"obs.overhead_x", "x"},
		{"obs.pipeview_bytes_per_inst", "B/inst"}, {"obs.events_bytes_per_inst", "B/inst"},
		{"obs.interval_bytes_per_inst", "B/inst"}, {"obs.alloc_mb_per_minst", "MB/Minst"},
		{"loadgen.lag_p99_ms", "ms"}, {"runtime.gc_cycles", "count"}, {"trace.overhead_share", "share"},
	}...)
}

var workloadRunners = map[string]func(context.Context, options) (*outcome, error){
	"paper-suite":     runPaperSuite,
	"serve-mix":       runServeMix,
	"observed-replay": runObserved,
}

// setupRuns is how many times each workload sets up; setup_s is the
// median.
const setupRuns = 7

// runDeadline keeps every run inside the benchmark's 180-second limit even
// when the program under test hangs.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heliosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: paper-suite, serve-mix or observed-replay")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 30, "measurement time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.goldenOut, "golden-out", "", "write the digests this run computed to this file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloadRunners[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "heliosbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", sortedKeys(workloadRunners))
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.traced = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	out, err := runner(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "heliosbench: %s: %v\n", o.workload, err)
		return 1
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	out.metrics["ok_share"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))

	defs := endToEnd
	if o.traced {
		defs = perLayer()
		if err := writeTraceReport(o, out); err != nil {
			fmt.Fprintf(stderr, "heliosbench: trace report: %v\n", err)
			return 1
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "%s: %s\n", o.workload, n)
	}
	res, err := resultLine(out, defs, !o.traced)
	if err != nil {
		fmt.Fprintf(stderr, "heliosbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line of the benchmark's output. With
// required set every metric must have been measured (the end-to-end
// set); otherwise a metric of a layer the workload does not exercise
// reads 0.
func resultLine(out *outcome, defs []metricDef, required bool) (string, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && required {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
	return string(b), err
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// morePasses reports whether a measurement that started at start runs
// another pass: always a first one, then until another pass of the mean
// length so far would end more than half a pass past the budget.
func morePasses(start time.Time, walls []float64, budget time.Duration) bool {
	if len(walls) == 0 {
		return true
	}
	pass := time.Duration(mean(walls) * float64(time.Second))
	return time.Since(start)+pass/2 < budget
}

// fanOut calls f(i) for every i in [0, n) on the given number of
// goroutines, handing out indices in order, and returns when all are done.
func fanOut(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
