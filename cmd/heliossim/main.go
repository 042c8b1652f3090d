// Command heliossim runs one workload on the cycle-level core model under
// a chosen fusion configuration and prints the detailed statistics.
//
// It is the single-run driver: rvemu captures trace files, experiments
// renders the paper's figures, and heliossim replays one workload (live
// or from a capture) under one configuration, or under all six with
// -compare. A single run can also write its manifest and obs streams.
//
// Usage:
//
//	heliossim -workload xz -mode Helios [-insts 350000]
//	heliossim -trace-in xz.trace.gz -compare        # replay an rvemu capture per config
//	heliossim -workload xz -timeout 30s             # bound the wall time
//	heliossim -workload xz -manifest xz.json        # config + stats + build, for heliosreport
//	heliossim -workload crc32 -pipeview crc32.pv    # Konata-loadable trace
//	heliossim -workload crc32 -interval-metrics m.csv -interval 1000
//	heliossim -list
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/report"
	"helios/internal/stats"
	"helios/internal/trace"
	"helios/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole driver. It returns the exit status (0 on success, 1
// when the run fails, 2 on a flag error) only after its deferred CPU
// profile and obs-file writers have run, so a failed run keeps them.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("heliossim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "crc32", "workload name (see -list)")
		mode     = fs.String("mode", "Helios", "fusion configuration: "+modeNames())
		insts    = fs.Uint64("insts", 0, "instruction budget (0 = workload default, or the -trace-in capture's bound)")
		list     = fs.Bool("list", false, "list workloads and exit")
		compare  = fs.Bool("compare", false, "run every fusion configuration and compare IPC")
		traceIn  = fs.String("trace-in", "", "simulate a stream recorded by rvemu -trace-out instead of emulating")
		timeout  = fs.Duration("timeout", 0, "abort the whole run after this wall time (0 = no limit)")
		manifest = fs.String("manifest", "", "write a per-run JSON manifest (config + stats + build identity) to this file")

		pipeview    = fs.String("pipeview", "", "write a gem5 O3PipeView pipeline trace (Konata-loadable) to this file")
		events      = fs.String("events", "", "write per-µop NDJSON pipeline events to this file")
		intervalCSV = fs.String("interval-metrics", "", "write the interval metrics time series (CSV) to this file")
		interval    = fs.Uint64("interval", obs.DefaultInterval, "interval sampler period in cycles (with -interval-metrics; must be > 0)")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	obsOn := *pipeview != "" || *events != "" || *intervalCSV != ""
	switch {
	case obsOn && *compare:
		fmt.Fprintln(stderr, "-pipeview/-events/-interval-metrics apply to a single run; drop -compare")
		return 2
	case *intervalCSV != "" && *interval == 0:
		fmt.Fprintln(stderr, "-interval must be > 0 with -interval-metrics")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		defer closeOut(f.Close, &code, stderr)
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-14s %-10d %s\n", w.Name, w.MaxInsts, w.PaperRef)
		}
		return 0
	}

	// Phase one: obtain the committed stream. Load it from a trace file,
	// or record it once from the emulator when -compare will reuse it.
	// Replays stop at the budget, as a live single run does.
	var (
		rec    *trace.Recording
		budget uint64 // replay bound on rec; 0 drains it
		name   string
		w      workloads.Workload
	)
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return fail(stderr, err)
		}
		rec, err = trace.ReadFrom(f)
		f.Close()
		if err != nil {
			return fail(stderr, err)
		}
		// Without -insts, replay to the capture's bound, as a live run
		// stops at its budget.
		name, budget = rec.Name, *insts
		if budget == 0 {
			budget = rec.MaxInsts
		}
		fmt.Fprintf(stdout, "loaded trace: %s (%d µ-ops, budget %d)\n\n", rec.Name, rec.Len(), rec.MaxInsts)
	} else {
		var ok bool
		if w, ok = workloads.ByName(*workload); !ok {
			return fail(stderr, fmt.Errorf("unknown workload %q; try -list", *workload))
		}
		name = w.Name
		if *compare {
			var err error
			if rec, err = w.Record(*insts); err != nil {
				return fail(stderr, err)
			}
			budget = rec.MaxInsts
		}
	}
	replay := func(cfg ooo.Config) (*core.Result, error) {
		return core.RunSource(ctx, name, cfg, trace.Limit(rec.Replay(), budget), budget)
	}

	// Phase two: replay through the cycle-level model.
	if *compare {
		t, err := compareModes(name, replay)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprint(stdout, t)
		return 0
	}
	m, ok := fusion.ModeByName(*mode)
	if !ok {
		return fail(stderr, fmt.Errorf("unknown mode %q; want one of %s", *mode, modeNames()))
	}
	cfg := ooo.DefaultConfig(m)
	if obsOn {
		ob := &obs.Observer{SampleEvery: *interval}
		for _, out := range []struct {
			path string
			w    *io.Writer
		}{{*pipeview, &ob.PipeView}, {*events, &ob.Events}, {*intervalCSV, &ob.Metrics}} {
			if out.path == "" {
				continue
			}
			f, err := os.Create(out.path)
			if err != nil {
				return fail(stderr, err)
			}
			defer closeOut(f.Close, &code, stderr)
			// Buffered, so an event costs a copy, not a write(2). The
			// flush is deferred after the Close, so it runs first.
			bw := bufio.NewWriterSize(f, 64<<10)
			defer closeOut(bw.Flush, &code, stderr)
			*out.w = bw
		}
		cfg.Obs = ob
	}
	var (
		r   *core.Result
		err error
	)
	if rec != nil {
		r, err = replay(cfg)
	} else {
		r, err = core.RunConfig(ctx, w, cfg, *insts)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if cfg.Obs != nil {
		if err := cfg.Obs.Err(); err != nil {
			return fail(stderr, fmt.Errorf("observer: %w", err))
		}
	}
	if *manifest != "" {
		if err := report.NewManifest(r.Workload, r.Mode, cfg, r.Stats).WriteFile(*manifest); err != nil {
			return fail(stderr, err)
		}
	}
	printResult(stdout, r)
	return 0
}

// fail prints err and returns exit status 1. If the failure is a
// structured pipeline crash, the full JSON dump (cycle, queue
// occupancies, recent commits, invariant verdict) follows the one-line
// summary so the state at the point of death is preserved for
// post-mortem.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	var se *ooo.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(stderr, "\ncrash dump:\n%s\n", se.JSON())
	}
	return 1
}

// closeOut flushes or closes an output (done is its Flush or Close)
// when run returns; an error fails a run that had otherwise succeeded.
func closeOut(done func() error, code *int, stderr io.Writer) {
	if err := done(); err != nil && *code == 0 {
		*code = fail(stderr, err)
	}
}

func modeNames() string {
	names := make([]string, len(fusion.Modes))
	for i, m := range fusion.Modes {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// compareModes replays the one recording through every fusion
// configuration on min(GOMAXPROCS, 6) workers (replay cursors are
// independent, so the runs cannot interfere). Every mode is replayed,
// so each slot holds a result or an error; a cancelled run fails at its
// first cycle. The table is built serially in fusion.Modes order
// afterwards, including the NoFusion IPC baseline, so the output does
// not depend on the worker count.
func compareModes(name string, replay func(ooo.Config) (*core.Result, error)) (*stats.Table, error) {
	results := make([]*core.Result, len(fusion.Modes))
	errs := make([]error, len(fusion.Modes))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(fusion.Modes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < len(fusion.Modes); i = int(cursor.Add(1)) - 1 {
				results[i], errs[i] = replay(ooo.DefaultConfig(fusion.Modes[i]))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var base float64
	for i, m := range fusion.Modes {
		if m == fusion.ModeNoFusion {
			base = results[i].Stats.IPC()
		}
	}
	t := stats.NewTable(fmt.Sprintf("%s: fusion configuration comparison", name),
		"config", "IPC", "vs NoFusion", "csf", "ncsf", "idioms", "mispredicts")
	for i, m := range fusion.Modes {
		s := results[i].Stats
		t.AddRow(m.String(), stats.F(s.IPC(), 3), stats.F(s.IPC()/base, 3),
			fmt.Sprint(s.CSFPairs()), fmt.Sprint(s.NCSFPairs()),
			fmt.Sprint(s.FusedIdiom+s.FusedMemIdiom), fmt.Sprint(s.FusionMispredicts))
	}
	return t, nil
}

func printResult(out io.Writer, r *core.Result) {
	s := r.Stats
	fmt.Fprintf(out, "workload:   %s\nconfig:     %v\n\n", r.Workload, r.Mode)
	fmt.Fprintf(out, "cycles:             %d\n", s.Cycles)
	fmt.Fprintf(out, "instructions:       %d (%d µ-ops, %d memory)\n",
		s.CommittedInsts, s.CommittedUops, s.CommittedMem)
	fmt.Fprintf(out, "IPC:                %.3f\n\n", s.IPC())

	fmt.Fprintf(out, "fused idioms:       %d non-memory, %d memory-carrying\n", s.FusedIdiom, s.FusedMemIdiom)
	fmt.Fprintf(out, "fused pairs:        %d CSF (%d ld / %d st), %d NCSF (%d ld / %d st)\n",
		s.CSFPairs(), s.CSFLoadPairs, s.CSFStorePairs,
		s.NCSFPairs(), s.NCSFLoadPairs, s.NCSFStorePairs)
	fmt.Fprintf(out, "pair attributes:    %d DBR, %d asymmetric, mean NCSF distance %.1f\n",
		s.DBRPairs, s.AsymmetricPairs, s.MeanNCSFDistance())
	reasons := make([]string, fusion.NumUnfuseReasons)
	for r := range reasons {
		reasons[r] = fusion.UnfuseReason(r).String()
	}
	fmt.Fprintf(out, "unfused at rename:  %d (%s = %v)\n\n",
		s.UnfusedAtRename, strings.Join(reasons, "/"), s.UnfuseReasons)

	fmt.Fprintf(out, "fusion predictor:   %d predictions, %d mispredicts (accuracy %.2f%%, coverage %.2f%%, MPKI %.4f)\n",
		s.FusionPredictions, s.FusionMispredicts, 100*s.Accuracy(), 100*s.Coverage(), s.FusionMPKI())
	fmt.Fprintf(out, "branches:           %d (%d mispredicted, MPKI %.2f)\n",
		s.Branches, s.BranchMispredicts, s.BranchMPKI())
	fmt.Fprintf(out, "memory:             %d forwards, %d violations, %d flushes\n\n",
		s.STLForwards, s.StoreSetViolations, s.Flushes)

	cyc := float64(s.Cycles)
	fmt.Fprintf(out, "structural stalls:  regs %.1f%%, rob %.1f%%, iq %.1f%%, lq %.1f%%, sq %.1f%%, aq %.1f%%\n",
		100*float64(s.StallFreeList)/cyc, 100*float64(s.StallROB)/cyc,
		100*float64(s.StallIQ)/cyc, 100*float64(s.StallLQ)/cyc,
		100*float64(s.StallSQ)/cyc, 100*float64(s.StallAQ)/cyc)

	if budget := s.TopDown.SlotBudget(); budget > 0 {
		td := &s.TopDown
		p := func(v uint64) float64 { return 100 * float64(v) / float64(budget) }
		fmt.Fprintf(out, "top-down slots:     retiring %.1f%% (+%.1f%% fused), fe-lat %.1f%%, fe-bw %.1f%%, bad-spec %.1f%%, be-core %.1f%%, be-mem %.1f%%\n",
			p(td.Retiring), p(td.FusedRetiring), p(td.FrontendLatency),
			p(td.FrontendBandwidth), p(td.BadSpeculation), p(td.BackendCore),
			p(td.BackendMemory()))
	}
}
