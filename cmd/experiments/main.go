// Command experiments regenerates the paper's tables and figures.
//
// It is the suite driver: every table comes from one shared
// record-once/replay-many cache. Single runs, their manifests and obs
// streams are heliossim's job; trace capture is rvemu's.
//
// Usage:
//
//	experiments                  # everything, paper order
//	experiments -id fig10        # one experiment
//	experiments -insts 100000    # smaller budget per run
//	experiments -csv             # machine-readable output
//	experiments -workloads xz,gcc,typeset
//	experiments -trace sched.json # scheduler timeline for Perfetto
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole driver. It returns the exit status (0 on success, 1
// when an experiment fails, 2 on a flag error) only after its deferred
// Chrome-trace writer has run, so a failed run keeps its timeline.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.String("id", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+"); empty = all")
		insts    = fs.Uint64("insts", 0, "instruction budget per run (0 = workload defaults)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		worklist = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		metrics  = fs.Bool("metrics", false, "print record/replay trace-layer counters after the tables (deterministic: byte-identical across identical runs)")
		walltime = fs.Bool("walltime", false, "also print wall-time breakdown to stderr (nondeterministic; includes per-cell walls and realized speedup)")
		timeout  = fs.Duration("timeout", 0, "abort the whole suite after this wall time (0 = no limit)")
		parallel = fs.Int("parallel", 0, "scheduler workers for the replay fan-out (0 = GOMAXPROCS, 1 = serial; output is byte-identical for every value)")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON scheduler timeline to this file (wall-clock data; quarantined from stdout, loadable in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -trace attaches a telemetry trace to the context so core.RunCells
	// emits one span per cell on a per-worker lane — with -parallel this
	// is the scheduler utilization timeline. The Chrome JSON goes to its
	// own file, never stdout: span times are wall-clock and must stay
	// out of the deterministic -metrics surface (DESIGN.md §15).
	if *traceOut != "" {
		tracer := telemetry.New(telemetry.Options{})
		suiteTrace := tracer.StartTrace("experiments")
		ctx = telemetry.WithTrace(ctx, suiteTrace)
		defer func() {
			suiteTrace.Finish()
			if err := writeTrace(*traceOut, tracer); err != nil && code == 0 {
				code = fail(stderr, err)
			}
		}()
	}

	h := experiments.New(*insts)
	h.Parallel = *parallel
	if *worklist != "" {
		h.Workloads = strings.Split(*worklist, ",")
	}

	ids := experiments.IDs()
	if *id != "" {
		ids = []string{*id}
	}
	// Warm the cache before printing everything, fanning workload×mode
	// cells across the scheduler's workers. A traced single-experiment
	// run warms too, so its timeline shows the parallel fan-out; the
	// figure then reads the warmed cache.
	if *id == "" || *traceOut != "" {
		h.Suite.PrefetchN(ctx, h.Workloads, fusion.Modes, *parallel)
	}
	for _, idName := range ids {
		tbl, err := h.Run(ctx, idName)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", idName, err))
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", idName, tbl.CSV())
		} else {
			fmt.Fprintf(stdout, "%s\n", tbl)
		}
	}
	if *metrics {
		fmt.Fprintf(stdout, "%s\n", h.MetricsTable())
	}
	if *walltime {
		// Wall times are nondeterministic by nature; stderr keeps
		// stdout byte-stable for diffing identical runs.
		fmt.Fprintf(stderr, "%s\n", h.WallTimeTable())
	}
	return 0
}

// writeTrace writes the tracer's finished spans to path as Chrome
// trace-event JSON.
func writeTrace(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, tracer.Finished()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail prints err and returns exit status 1. If the failure is a
// structured pipeline crash, the full JSON dump follows the one-line
// summary so the state at the point of death is preserved.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	var se *ooo.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(stderr, "\ncrash dump:\n%s\n", se.JSON())
	}
	return 1
}
