package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"helios/internal/core"
	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/stats"
)

// paperSuiteWorkers is the scheduler width of the researcher's run on
// the 2-core host the benchmark targets.
const paperSuiteWorkers = 2

// suitePass is one full evaluation: all kernels recorded at their
// default budgets, replayed under all six configurations, and every
// figure and table rendered.
type suitePass struct {
	h      *experiments.Harness
	tables map[string]*stats.Table
	wall   time.Duration
	m      core.Metrics // suite counters after the pass

	// Traced passes only.
	recordBusy  time.Duration
	recordInsts float64
	replay0     core.Metrics // suite counters before the fan-out
	fanoutAlloc uint64       // bytes allocated during the fan-out
}

func runPaperSuite(ctx context.Context, o options) (*outcome, error) {
	g, err := loadGolden(o)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if out.metrics["setup_s"], err = paperSuiteSetup(ctx); err != nil {
		return nil, err
	}

	if o.traced {
		return out, tracedPaperSuite(ctx, o, g, out)
	}
	var walls, rates, cellLat, cellRates []float64
	start := time.Now()
	for morePasses(start, walls, o.seconds) {
		p, err := paperSuiteRunAll(ctx)
		if err != nil {
			return nil, err
		}
		insts := checkPaperSuite(ctx, o, g, p, out)
		walls = append(walls, secs(p.wall))
		rates = append(rates, insts/1e6/secs(p.wall))
		for _, c := range p.m.CellWalls {
			cellLat = append(cellLat, ms(c.Wall))
		}
		cellRates = append(cellRates, float64(len(p.m.CellWalls))/secs(p.m.FanoutWall))
	}
	out.metrics["wall_s"] = median(walls)
	out.metrics["sim_minsts_per_s"] = median(rates)
	out.metrics["p50_ms"] = median(cellLat)
	p99, pct := tail(cellLat, 99)
	out.metrics["p99_ms"] = p99
	out.metrics["knee_rps"] = median(cellRates)
	out.notef("%d passes; latency is per replay cell (n=%d, p99_ms reports p%d)", len(walls), len(cellLat), pct)
	return out, nil
}

// setupBudget is the instruction budget of the set-up's smoke pass.
const setupBudget = 20000

// paperSuiteSetup is the median of setupRuns smoke passes: a harness
// over all 17 kernels at a 20,000-instruction budget running RunAll, so
// every kernel is assembled, recorded and replayed under all six
// configurations and every table is rendered once before timing starts.
// A pass takes about a second; at 2,000 instructions it took a fifth of
// one, and host scheduling noise moved the median by a quarter.
func paperSuiteSetup(ctx context.Context) (float64, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		h := experiments.New(setupBudget)
		h.Parallel = paperSuiteWorkers
		if _, err := h.RunAll(ctx); err != nil {
			return 0, fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, secs(time.Since(t)))
	}
	return median(setups), nil
}

func newHarness() *experiments.Harness {
	h := experiments.New(0)
	h.Parallel = paperSuiteWorkers
	return h
}

// paperSuiteRunAll is the researcher's job exactly as they run it.
func paperSuiteRunAll(ctx context.Context) (*suitePass, error) {
	h := newHarness()
	t0 := time.Now()
	tables, err := h.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	return &suitePass{h: h, tables: tables, wall: time.Since(t0), m: h.Suite.Metrics()}, nil
}

// paperSuiteTraced does the work of RunAll through its public parts so
// each layer gets its own span: the record phase (every kernel's
// recording, on the scheduler's worker count), the replay fan-out, and
// each experiment's serial analysis.
func paperSuiteTraced(ctx context.Context, tr *spanLog) (*suitePass, error) {
	h := newHarness()
	p := &suitePass{h: h, tables: make(map[string]*stats.Table)}
	t0 := time.Now()
	root := tr.begin(0, "experiments", "RunAll", "")

	var mu sync.Mutex
	errs := make([]error, len(h.Workloads))
	fanOut(len(h.Workloads), paperSuiteWorkers, func(i int) {
		t := time.Now()
		sp := tr.begin(root, "record", h.Workloads[i], "")
		rec, err := h.Suite.Recording(ctx, h.Workloads[i])
		tr.end(sp)
		errs[i] = err
		if err == nil {
			mu.Lock()
			p.recordBusy += time.Since(t)
			p.recordInsts += float64(rec.Len())
			mu.Unlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	p.replay0 = h.Suite.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin(root, "sched", "PrefetchN", "")
	h.Suite.PrefetchN(ctx, h.Workloads, fusion.Modes, paperSuiteWorkers)
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	p.fanoutAlloc = ms1.TotalAlloc - ms0.TotalAlloc

	for _, id := range experiments.IDs() {
		sp := tr.begin(root, "exp", id, "")
		tbl, err := h.Run(ctx, id)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		p.tables[id] = tbl
	}
	tr.end(root)
	p.wall = time.Since(t0)
	p.m = h.Suite.Metrics()
	return p, nil
}

func tracedPaperSuite(ctx context.Context, o options, g *goldenFile, out *outcome) error {
	ref, err := paperSuiteRunAll(ctx)
	if err != nil {
		return err
	}
	checkPaperSuite(ctx, o, g, ref, out)

	tr := newSpanLog()
	p, err := paperSuiteTraced(ctx, tr)
	if err != nil {
		return err
	}
	// The decomposed pass must give RunAll's tables and statistics.
	insts := checkPaperSuite(ctx, o, g, p, out)
	out.spans = tr.snapshot()

	var cycles float64
	for _, name := range p.h.Workloads {
		for _, m := range fusion.Modes {
			r, _ := p.h.Suite.Get(ctx, name, m)
			cycles += float64(r.Stats.Cycles)
		}
	}
	m := out.metrics
	m["trace.overhead_share"] = secs(p.wall-ref.wall) / secs(ref.wall)
	m["record.busy_s"] = secs(p.recordBusy)
	m["record.count"] = float64(p.replay0.TraceMisses)
	m["record.minsts_per_s"] = p.recordInsts / 1e6 / secs(p.recordBusy)
	replayBusy := p.m.SimTime - p.replay0.SimTime
	m["replay.busy_s"] = secs(replayBusy)
	m["replay.count"] = float64(p.m.PipelineRuns - p.replay0.PipelineRuns)
	m["replay.minsts_per_s"] = insts / 1e6 / secs(replayBusy)
	m["replay.mcycles_per_s"] = cycles / 1e6 / secs(replayBusy)
	m["replay.new_ms"] = probeNew(ctx, p.h.Suite, p.h.Workloads, fusion.Modes, 0)
	m["replay.alloc_mb_per_minst"] = float64(p.fanoutAlloc) / 1e6 / (insts / 1e6)
	var cellSum time.Duration
	for _, c := range p.m.CellWalls {
		cellSum += c.Wall
	}
	m["sched.fanout_s"] = secs(p.m.FanoutWall)
	m["sched.realized_x"] = secs(cellSum) / secs(p.m.FanoutWall)
	var tail time.Duration
	for _, s := range out.spans {
		if s.Layer == "exp" {
			m["exp."+s.Name+".busy_s"] = secs(s.dur())
			tail += s.dur()
		}
	}
	m["sched.serial_tail_s"] = secs(tail)
	m["core.trace_hits"] = float64(p.m.TraceHits)
	m["core.trace_misses"] = float64(p.m.TraceMisses)
	m["core.trace_reuse_ratio"] = ratio(float64(p.m.TraceHits), float64(p.m.TraceHits+p.m.TraceMisses))
	out.notef("untraced RunAll %.3fs, traced pass %.3fs", secs(ref.wall), secs(p.wall))
	out.notef("replay time is inside the sched span; replay.* come from Suite.Metrics around it")
	return nil
}

// probeNew times ooo.New alone (pipeline construction, no cycles) for
// every workload×mode cell over the suite's warm recordings at budget
// (0 = the suite's), and returns the mean in milliseconds.
func probeNew(ctx context.Context, s *core.Suite, names []string, modes []fusion.Mode, budget uint64) float64 {
	var total time.Duration
	n := 0
	for _, name := range names {
		rec, err := s.RecordingBudget(ctx, name, budget)
		if err != nil {
			continue
		}
		for _, m := range modes {
			cfg := ooo.DefaultConfig(m)
			cfg.MaxUops = rec.MaxInsts
			t := time.Now()
			ooo.New(cfg, rec.Replay())
			total += time.Since(t)
			n++
		}
	}
	return ratio(ms(total), float64(n))
}

// checkPaperSuite gates one pass against the golden digests: the
// rendered tables and every cell's statistics. It counts each cell and
// the tables as an operation, and returns the committed instructions
// across cells. The suite's counters (MetricsTable) are not gated: they
// count caching and scheduling, which later changes are meant to alter,
// not simulated output; the traced run reports them as core.* metrics.
func checkPaperSuite(ctx context.Context, o options, g *goldenFile, p *suitePass, out *outcome) float64 {
	var sb strings.Builder
	for _, id := range experiments.IDs() {
		fmt.Fprintf(&sb, "# %s\n%s\n", id, p.tables[id])
	}
	tables := sumHex([]byte(sb.String()))
	cells := make(map[string]string)
	var insts float64
	for _, name := range p.h.Workloads {
		for _, m := range fusion.Modes {
			r, err := p.h.Suite.Get(ctx, name, m)
			if err != nil {
				continue // a missing cell fails its digest below
			}
			cells[name+"/"+m.String()] = statsDigest(&r.Stats)
			insts += float64(r.Stats.CommittedInsts)
		}
	}
	gs := &g.PaperSuite
	if o.goldenOut != "" {
		gs.Tables, gs.Cells = tables, cells
		if err := g.write(o.goldenOut); err != nil {
			out.fail(1, "write %s: %v", o.goldenOut, err)
		}
	}
	out.attempted += int64(len(gs.Cells)) + 1
	bad := mismatches(cells, gs.Cells)
	out.fail(len(bad), "cell statistics differ from golden: %v", bad)
	if tables != gs.Tables {
		out.fail(1, "rendered tables differ from golden")
	}
	return insts
}
