package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
)

// observedKernels is the fixed subset observed-replay replays: both
// suites are represented, and fusion fires in each (crc32, where it
// never does, is left out). They are listed longest first, so the two
// workers finish a pass within ~2% of each other; a seeded order would
// move the pass's wall time by up to a quarter.
var observedKernels = []string{"bitcount", "stringsearch", "typeset", "qsort", "xz", "sha"}

// observedInterval is the interval sampler period, in cycles.
const observedInterval = 1000

// observedWorkers is how many observed replays run at once: both of the
// host's CPUs, as the suite scheduler uses them.
const observedWorkers = 2

// observedCellRun is one observed replay and what it emitted.
type observedCellRun struct {
	name    string
	lat     time.Duration
	insts   float64
	streams [3]*hashCounter // pipeview, events, interval
}

func runObserved(ctx context.Context, o options) (*outcome, error) {
	g, err := loadGolden(o)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var tr *spanLog
	if o.traced {
		tr = newSpanLog()
	}

	// Set-up: a fresh suite with every observed kernel recorded, made
	// setupRuns times; the median is reported and the last suite is kept.
	var suite *core.Suite
	var setups []float64
	var recordBusy time.Duration
	var recordInsts float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		suite = core.NewSuite(0)
		recordBusy, recordInsts = 0, 0
		for _, name := range observedKernels {
			tk := time.Now()
			sp := tr.begin(0, "record", name, "")
			rec, err := suite.Recording(ctx, name)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			recordBusy += time.Since(tk)
			recordInsts += float64(rec.Len())
		}
		setups = append(setups, secs(time.Since(t)))
	}
	out.metrics["setup_s"] = median(setups)

	pass := func(tr *spanLog) (time.Duration, []observedCellRun, error) {
		root := tr.begin(0, "bench", "pass", "")
		defer tr.end(root)
		n := len(observedKernels)
		cells := make([]observedCellRun, n)
		stats := make([]string, n)
		errs := make([]error, n)
		t0 := time.Now()
		fanOut(n, observedWorkers, func(i int) {
			c := &cells[i]
			c.name = observedKernels[i]
			for k := range c.streams {
				c.streams[k] = newHashCounter()
			}
			ob := &obs.Observer{PipeView: c.streams[0], Events: c.streams[1],
				Metrics: c.streams[2], SampleEvery: observedInterval}
			tc := time.Now()
			sp := tr.begin(root, "obs", c.name, "")
			r, err := suite.ObserveReplayConfig(ctx, c.name, ooo.DefaultConfig(fusion.ModeHelios), 0, ob)
			tr.end(sp)
			c.lat = time.Since(tc)
			if err != nil {
				errs[i] = fmt.Errorf("observe %s: %w", c.name, err)
				return
			}
			c.insts = float64(r.Stats.CommittedInsts)
			stats[i] = statsDigest(&r.Stats)
		})
		wall := time.Since(t0)
		for i, c := range cells {
			if errs[i] != nil {
				return 0, nil, errs[i]
			}
			checkObserved(o, g, c, stats[i], out)
		}
		return wall, cells, nil
	}

	if o.traced {
		return out, tracedObserved(ctx, o, g, suite, pass, tr, out, recordBusy, recordInsts)
	}
	var walls, rates, lats, cellRates []float64
	start := time.Now()
	for morePasses(start, walls, o.seconds) {
		wall, cells, err := pass(nil)
		if err != nil {
			return nil, err
		}
		var insts float64
		for _, c := range cells {
			insts += c.insts
			lats = append(lats, ms(c.lat))
		}
		walls = append(walls, secs(wall))
		rates = append(rates, insts/1e6/secs(wall))
		cellRates = append(cellRates, float64(len(cells))/secs(wall))
	}
	out.metrics["wall_s"] = median(walls)
	out.metrics["sim_minsts_per_s"] = median(rates)
	out.metrics["p50_ms"] = median(lats)
	p99, pct := tail(lats, 99)
	out.metrics["p99_ms"] = p99
	out.metrics["knee_rps"] = median(cellRates)
	out.notef("%d passes; latency is per observed replay (n=%d, p99_ms reports p%d)", len(walls), len(lats), pct)
	return out, nil
}

// checkObserved gates one observed replay: its statistics and the byte
// count and SHA-256 of each stream must match the golden cell.
func checkObserved(o options, g *goldenFile, c observedCellRun, stats string, out *outcome) {
	got := observedCell{Stats: stats, PipeView: c.streams[0].stream(),
		Events: c.streams[1].stream(), Interval: c.streams[2].stream()}
	if o.goldenOut != "" {
		if g.Observed == nil {
			g.Observed = make(map[string]observedCell)
		}
		g.Observed[c.name] = got
		if err := g.write(o.goldenOut); err != nil {
			out.fail(1, "write %s: %v", o.goldenOut, err)
		}
	}
	out.attempted++
	if want, ok := g.Observed[c.name]; !ok || got != want {
		out.fail(1, "observed replay of %s differs from golden", c.name)
	}
}

func tracedObserved(ctx context.Context, o options, g *goldenFile, suite *core.Suite,
	pass func(*spanLog) (time.Duration, []observedCellRun, error), tr *spanLog, out *outcome,
	recordBusy time.Duration, recordInsts float64) error {
	refWall, _, err := pass(nil)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall, cells, err := pass(tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)

	// Reference: the same cells replayed with obs off, construction and
	// cycle loop timed apart. Obs must not change a single statistic.
	type refRun struct {
		newT, runT time.Duration
		st         *ooo.Stats
		err        error
	}
	refs := make([]refRun, len(observedKernels))
	var ms2, ms3 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	root := tr.begin(0, "bench", "obs-off reference", "")
	fanOut(len(observedKernels), observedWorkers, func(i int) {
		name := observedKernels[i]
		rec, err := suite.Recording(ctx, name)
		if err != nil {
			refs[i].err = err
			return
		}
		cfg := ooo.DefaultConfig(fusion.ModeHelios)
		cfg.MaxUops = rec.MaxInsts
		t := time.Now()
		sp := tr.begin(root, "replay", "New "+name, "")
		p := ooo.New(cfg, rec.Replay())
		tr.end(sp)
		t1 := time.Now()
		sp = tr.begin(root, "replay", "RunContext "+name, "")
		refs[i].st, refs[i].err = p.RunContext(ctx)
		tr.end(sp)
		refs[i].newT, refs[i].runT = t1.Sub(t), time.Since(t1)
	})
	var newT, runT time.Duration
	var insts, cycles float64
	for i, r := range refs {
		name := observedKernels[i]
		if r.err != nil {
			return fmt.Errorf("obs-off replay %s: %w", name, r.err)
		}
		newT += r.newT
		runT += r.runT
		insts += float64(r.st.CommittedInsts)
		cycles += float64(r.st.Cycles)
		out.attempted++
		if want := g.Observed[name].Stats; statsDigest(r.st) != want {
			out.fail(1, "obs-off replay of %s differs from the observed statistics", name)
		}
	}
	tr.end(root)
	runtime.ReadMemStats(&ms3)
	out.spans = tr.snapshot()

	var obsBusy time.Duration
	var bytes [3]float64
	for _, c := range cells {
		obsBusy += c.lat
		for k, s := range c.streams {
			bytes[k] += float64(s.n)
		}
	}
	m := out.metrics
	m["trace.overhead_share"] = secs(wall-refWall) / secs(refWall)
	m["record.busy_s"] = secs(recordBusy)
	m["record.count"] = float64(len(observedKernels))
	m["record.minsts_per_s"] = recordInsts / 1e6 / secs(recordBusy)
	m["replay.busy_s"] = secs(newT + runT)
	m["replay.count"] = float64(len(observedKernels))
	m["replay.minsts_per_s"] = insts / 1e6 / secs(newT+runT)
	m["replay.mcycles_per_s"] = cycles / 1e6 / secs(newT+runT)
	m["replay.new_ms"] = ms(newT) / float64(len(observedKernels))
	m["replay.alloc_mb_per_minst"] = float64(ms3.TotalAlloc-ms2.TotalAlloc) / insts
	m["obs.busy_s"] = secs(obsBusy)
	m["obs.overhead_x"] = secs(obsBusy) / secs(newT+runT)
	m["obs.pipeview_bytes_per_inst"] = bytes[0] / insts
	m["obs.events_bytes_per_inst"] = bytes[1] / insts
	m["obs.interval_bytes_per_inst"] = bytes[2] / insts
	m["obs.alloc_mb_per_minst"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / insts
	sm := suite.Metrics()
	m["core.trace_hits"] = float64(sm.TraceHits)
	m["core.trace_misses"] = float64(sm.TraceMisses)
	m["core.trace_reuse_ratio"] = ratio(float64(sm.TraceHits), float64(sm.TraceHits+sm.TraceMisses))
	out.notef("untraced pass %.3fs, traced pass %.3fs; obs-off reference %.3fs (New %.1fms)",
		secs(refWall), secs(wall), secs(newT+runT), ms(newT))
	return nil
}
