// Package experiments regenerates every table and figure of the paper's
// evaluation: the motivation studies (Figures 2-5), the Helios results
// (Figure 8, Table III, Figures 9-10) and the storage budget (Section
// IV-B7). Each driver returns a stats.Table whose rows mirror the paper's
// per-application series; cmd/experiments prints them and heliosbench
// times them.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/stats"
	"helios/internal/uop"
	"helios/internal/workloads"
)

// Harness drives the full experiment suite with one shared result cache.
type Harness struct {
	Suite     *core.Suite
	Workloads []string

	// Parallel bounds the scheduler's replay workers during RunAll's
	// warm-up fan-out (0 = GOMAXPROCS, 1 = serial). The figures and
	// tables are byte-identical for every value: results are assembled
	// by cell index, never by completion order.
	Parallel int
}

// New creates a harness over every registered workload with the given
// per-run instruction budget (0 = each workload's own budget).
func New(maxInsts uint64) *Harness {
	return &Harness{
		Suite:     core.NewSuite(maxInsts),
		Workloads: workloads.Names(),
	}
}

// Observe replays one workload under the given mode with the
// observability layer attached, reusing the suite's shared recording.
// The cmd/experiments -obs mode fans this over every workload to
// produce per-workload pipeline traces and interval series.
func (h *Harness) Observe(ctx context.Context, name string, mode fusion.Mode, ob *obs.Observer) (*core.Result, error) {
	return h.Suite.ObserveReplay(ctx, name, mode, ob)
}

// IDs lists the experiment identifiers accepted by Run, in paper order.
func IDs() []string {
	return []string{
		"fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10",
		"table2", "table3", "cost",
	}
}

// Run dispatches one experiment by identifier.
func (h *Harness) Run(ctx context.Context, id string) (*stats.Table, error) {
	switch id {
	case "fig2":
		return h.Figure2(ctx)
	case "fig3":
		return h.Figure3(ctx)
	case "fig4":
		return h.Figure4(ctx)
	case "fig5":
		return h.Figure5(ctx)
	case "fig8":
		return h.Figure8(ctx)
	case "fig9":
		return h.Figure9(ctx)
	case "fig10":
		return h.Figure10(ctx)
	case "table2":
		return h.Table2(ctx)
	case "table3":
		return h.Table3(ctx)
	case "cost":
		return h.TableCost(ctx)
	}
	return nil, fmt.Errorf("experiments: unknown id %q (want one of %v)", id, IDs())
}

// Figure2 reports the percentage of dynamic µ-ops covered by fusion,
// split into the Memory pairing idioms and the Other (non-memory) idioms,
// measured on the RISCVFusion++ configuration.
func (h *Harness) Figure2(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Figure 2: fused µ-ops by idiom class (% of dynamic instructions), RISCVFusion++",
		"benchmark", "memory", "others")
	var mems, others []float64
	for _, name := range h.Workloads {
		r, err := h.Suite.Get(ctx, name, fusion.ModeRISCVFusionPP)
		if err != nil {
			return nil, err
		}
		s := r.Stats
		mem := 2 * float64(s.TotalMemPairs()) / float64(s.CommittedInsts)
		oth := 2 * float64(s.FusedIdiom+s.FusedMemIdiom) / float64(s.CommittedInsts)
		mems = append(mems, mem)
		others = append(others, oth)
		t.AddRow(name, stats.Pct(mem, 2), stats.Pct(oth, 2))
	}
	t.AddRow("average", stats.Pct(stats.Mean(mems), 2), stats.Pct(stats.Mean(others), 2))
	return t, nil
}

// Figure3 reports IPC of all-idiom fusion (RISCVFusion++) and memory-only
// fusion (CSF-SBR) normalised to no fusion.
func (h *Harness) Figure3(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Figure 3: normalized IPC, all idioms vs memory-only fusion (baseline = NoFusion)",
		"benchmark", "all idioms", "memory only")
	var alls, memsOnly []float64
	for _, name := range h.Workloads {
		base, err := h.Suite.Get(ctx, name, fusion.ModeNoFusion)
		if err != nil {
			return nil, err
		}
		all, err := h.Suite.Get(ctx, name, fusion.ModeRISCVFusionPP)
		if err != nil {
			return nil, err
		}
		mem, err := h.Suite.Get(ctx, name, fusion.ModeCSFSBR)
		if err != nil {
			return nil, err
		}
		na := all.Stats.IPC() / base.Stats.IPC()
		nm := mem.Stats.IPC() / base.Stats.IPC()
		alls = append(alls, na)
		memsOnly = append(memsOnly, nm)
		t.AddRow(name, stats.F(na, 3), stats.F(nm, 3))
	}
	t.AddRow("geomean", stats.F(stats.Geomean(alls), 3), stats.F(stats.Geomean(memsOnly), 3))
	return t, nil
}

// analyzeTrace runs the oracle pair analysis over a workload's committed
// stream, replaying the suite's shared recording rather than re-emulating.
func (h *Harness) analyzeTrace(ctx context.Context, name string, cfg fusion.PairConfig) (fusion.TraceStats, error) {
	rec, err := h.Suite.Recording(ctx, name)
	if err != nil {
		return fusion.TraceStats{}, err
	}
	return fusion.AnalyzeTrace(rec.Replay(), cfg)
}

// Figure4 classifies consecutive memory pairs by address relationship:
// contiguous, overlapping, same cache line, next line.
func (h *Harness) Figure4(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Figure 4: consecutive memory pairs by address category (% of dynamic µ-ops)",
		"benchmark", "contiguous", "overlapping", "sameline", "nextline")
	sums := make([]float64, 4)
	for _, name := range h.Workloads {
		ts, err := h.analyzeTrace(ctx, name, fusion.PairConfig{LineSize: 64, MaxDist: 64, ConsecutiveOnly: true})
		if err != nil {
			return nil, err
		}
		cats := []uop.AddrCategory{uop.AddrContiguous, uop.AddrOverlapping, uop.AddrSameLine, uop.AddrNextLine}
		row := []string{name}
		for i, c := range cats {
			frac := 2 * float64(ts.CSFByCategory[c]) / float64(ts.TotalUops)
			sums[i] += frac
			row = append(row, stats.Pct(frac, 2))
		}
		t.AddRow(row...)
	}
	n := float64(len(h.Workloads))
	t.AddRow("average", stats.Pct(sums[0]/n, 2), stats.Pct(sums[1]/n, 2),
		stats.Pct(sums[2]/n, 2), stats.Pct(sums[3]/n, 2))
	return t, nil
}

// Figure5 reports the additional potential of non-consecutive fusion and
// of pairs using different base registers.
func (h *Harness) Figure5(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Figure 5: non-consecutive and different-base-register fusion potential (% of dynamic µ-ops)",
		"benchmark", "csf", "ncsf", "dbr", "ncsf asym", "mean dist")
	var csfs, ncsfs, dbrs []float64
	for _, name := range h.Workloads {
		ts, err := h.analyzeTrace(ctx, name, fusion.DefaultPairConfig())
		if err != nil {
			return nil, err
		}
		tot := float64(ts.TotalUops)
		csf := 2 * float64(ts.CSFPairs) / tot
		ncsf := 2 * float64(ts.NCSFPairs) / tot
		dbr := 2 * float64(ts.CSFDiffBase+ts.NCSFDiffBase) / tot
		asym := 0.0
		if ts.NCSFPairs > 0 {
			asym = float64(ts.NCSFAsymmetric) / float64(ts.NCSFPairs)
		}
		csfs, ncsfs, dbrs = append(csfs, csf), append(ncsfs, ncsf), append(dbrs, dbr)
		t.AddRow(name, stats.Pct(csf, 2), stats.Pct(ncsf, 2), stats.Pct(dbr, 2),
			stats.Pct(asym, 1), stats.F(ts.MeanDistance(), 1))
	}
	t.AddRow("average", stats.Pct(stats.Mean(csfs), 2), stats.Pct(stats.Mean(ncsfs), 2),
		stats.Pct(stats.Mean(dbrs), 2), "", "")
	return t, nil
}

// Figure8 reports committed CSF and NCSF pairs in Helios and OracleFusion
// as a percentage of dynamic memory instructions, plus the mean head-tail
// distance (the paper reports 10.5 µ-ops on average).
func (h *Harness) Figure8(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Figure 8: fused pairs relative to dynamic memory instructions",
		"benchmark", "helios csf", "helios ncsf", "oracle csf", "oracle ncsf", "helios dist")
	var hc, hn, oc, on []float64
	for _, name := range h.Workloads {
		hr, err := h.Suite.Get(ctx, name, fusion.ModeHelios)
		if err != nil {
			return nil, err
		}
		or, err := h.Suite.Get(ctx, name, fusion.ModeOracle)
		if err != nil {
			return nil, err
		}
		pct := func(pairs uint64, s *ooo.Stats) float64 {
			if s.CommittedMem == 0 {
				return 0
			}
			return 2 * float64(pairs) / float64(s.CommittedMem)
		}
		h1 := pct(hr.Stats.CSFPairs(), &hr.Stats)
		h2 := pct(hr.Stats.NCSFPairs(), &hr.Stats)
		o1 := pct(or.Stats.CSFPairs(), &or.Stats)
		o2 := pct(or.Stats.NCSFPairs(), &or.Stats)
		hc, hn, oc, on = append(hc, h1), append(hn, h2), append(oc, o1), append(on, o2)
		t.AddRow(name, stats.Pct(h1, 1), stats.Pct(h2, 1), stats.Pct(o1, 1), stats.Pct(o2, 1),
			stats.F(hr.Stats.MeanNCSFDistance(), 1))
	}
	t.AddRow("average", stats.Pct(stats.Mean(hc), 1), stats.Pct(stats.Mean(hn), 1),
		stats.Pct(stats.Mean(oc), 1), stats.Pct(stats.Mean(on), 1), "")
	return t, nil
}

// Figure9 reports rename/dispatch structural stalls as a percentage of
// execution cycles for the baseline, Helios and OracleFusion.
func (h *Harness) Figure9(ctx context.Context) (*stats.Table, error) {
	modes := []fusion.Mode{fusion.ModeNoFusion, fusion.ModeHelios, fusion.ModeOracle}
	t := stats.NewTable(
		"Figure 9: structural stall cycles (% of total cycles)",
		"benchmark", "config", "rename(regs)", "rob", "iq", "lq", "sq", "aq", "total")
	for _, name := range h.Workloads {
		for _, m := range modes {
			r, err := h.Suite.Get(ctx, name, m)
			if err != nil {
				return nil, err
			}
			s := r.Stats
			cyc := float64(s.Cycles)
			t.AddRow(name, m.String(),
				stats.Pct(float64(s.StallFreeList)/cyc, 1),
				stats.Pct(float64(s.StallROB)/cyc, 1),
				stats.Pct(float64(s.StallIQ)/cyc, 1),
				stats.Pct(float64(s.StallLQ)/cyc, 1),
				stats.Pct(float64(s.StallSQ)/cyc, 1),
				stats.Pct(float64(s.StallAQ)/cyc, 1),
				stats.Pct(float64(s.StallCycles())/cyc, 1))
		}
	}
	return t, nil
}

// Figure10 reports the IPC of every configuration normalised to NoFusion,
// with the geomean across workloads (the paper's headline: Helios +14.2%,
// Oracle +16.3%, RISCVFusion++ +7%, CSF-SBR +6%, RISCVFusion +0.8%).
func (h *Harness) Figure10(ctx context.Context) (*stats.Table, error) {
	modes := []fusion.Mode{
		fusion.ModeRISCVFusion, fusion.ModeCSFSBR, fusion.ModeRISCVFusionPP,
		fusion.ModeHelios, fusion.ModeOracle,
	}
	headers := []string{"benchmark"}
	for _, m := range modes {
		headers = append(headers, m.String())
	}
	t := stats.NewTable("Figure 10: IPC normalized to NoFusion", headers...)
	norm := make(map[fusion.Mode][]float64)
	for _, name := range h.Workloads {
		base, err := h.Suite.Get(ctx, name, fusion.ModeNoFusion)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, m := range modes {
			r, err := h.Suite.Get(ctx, name, m)
			if err != nil {
				return nil, err
			}
			v := r.Stats.IPC() / base.Stats.IPC()
			norm[m] = append(norm[m], v)
			row = append(row, stats.F(v, 3))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, m := range modes {
		row = append(row, stats.F(stats.Geomean(norm[m]), 3))
	}
	t.AddRow(row...)
	return t, nil
}

// Table2 dumps the simulated machine configuration.
func (h *Harness) Table2(ctx context.Context) (*stats.Table, error) {
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	t := stats.NewTable("Table II: simulated machine", "parameter", "value")
	rows := [][2]string{
		{"fetch/decode width", fmt.Sprintf("%d/%d", cfg.FetchWidth, cfg.DecodeWidth)},
		{"rename/dispatch width", fmt.Sprintf("%d/%d", cfg.RenameWidth, cfg.DispatchWidth)},
		{"commit width", fmt.Sprint(cfg.CommitWidth)},
		{"allocation queue", fmt.Sprint(cfg.AQSize)},
		{"rob / iq", fmt.Sprintf("%d / %d", cfg.ROBSize, cfg.IQSize)},
		{"lq / sq", fmt.Sprintf("%d / %d", cfg.LQSize, cfg.SQSize)},
		{"physical registers", fmt.Sprint(cfg.PhysRegs)},
		{"ports (alu/load/store)", fmt.Sprintf("%d/%d/%d", cfg.ALUPorts, cfg.LoadPorts, cfg.StorePorts)},
		{"redirect penalty", fmt.Sprint(cfg.RedirectPenalty)},
		{"L1D", fmt.Sprintf("%d KiB, %d-way, %d cycles",
			cfg.Cache.L1D.Sets*cfg.Cache.L1D.Ways*int(cfg.Cache.L1D.LineSize)/1024,
			cfg.Cache.L1D.Ways, cfg.Cache.L1D.Latency)},
		{"L2", fmt.Sprintf("%d KiB, %d-way, %d cycles",
			cfg.Cache.L2.Sets*cfg.Cache.L2.Ways*int(cfg.Cache.L2.LineSize)/1024,
			cfg.Cache.L2.Ways, cfg.Cache.L2.Latency)},
		{"LLC", fmt.Sprintf("%d KiB, %d-way, %d cycles",
			cfg.Cache.LLC.Sets*cfg.Cache.LLC.Ways*int(cfg.Cache.LLC.LineSize)/1024,
			cfg.Cache.LLC.Ways, cfg.Cache.LLC.Latency)},
		{"memory latency", fmt.Sprint(cfg.Cache.MemLatency)},
		{"fusion max distance", fmt.Sprint(cfg.PairCfg.MaxDist)},
		{"NCSF nesting levels", fmt.Sprint(cfg.MaxNCSFNest)},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t, nil
}

// Table3 reports the Helios fusion predictor's coverage, accuracy and
// MPKI per application.
func (h *Harness) Table3(ctx context.Context) (*stats.Table, error) {
	t := stats.NewTable(
		"Table III: Helios fusion predictor coverage, accuracy and MPKI",
		"benchmark", "coverage", "accuracy", "mpki")
	var cov, acc, mpki []float64
	for _, name := range h.Workloads {
		r, err := h.Suite.Get(ctx, name, fusion.ModeHelios)
		if err != nil {
			return nil, err
		}
		s := r.Stats
		cov = append(cov, s.Coverage())
		acc = append(acc, s.Accuracy())
		mpki = append(mpki, s.FusionMPKI())
		t.AddRow(name, stats.Pct(s.Coverage(), 2), stats.Pct(s.Accuracy(), 2),
			stats.F(s.FusionMPKI(), 4))
	}
	t.AddRow("average", stats.Pct(stats.Mean(cov), 2), stats.Pct(stats.Mean(acc), 2),
		stats.F(stats.Mean(mpki), 4))
	return t, nil
}

// TableCost reports the Helios storage budget (Sections IV-B7 and IV-C).
func (h *Harness) TableCost(ctx context.Context) (*stats.Table, error) {
	c := helios.Cost(helios.PaperParams())
	t := stats.NewTable("Helios storage budget", "structure", "bits")
	items := []struct {
		name string
		bits int
	}{
		{"allocation queue (nucleus bits + NCS tags)", c.AQBits},
		{"rename counters", c.RenameCounters},
		{"physical register nucleus bits (AQ)", c.PhysRegNucleusAQ},
		{"physical register nucleus bits (IQ)", c.PhysRegNucleusIQ},
		{"physical register nucleus bits (LQ)", c.PhysRegNucleusLQ},
		{"WaR rename buffer", c.WaRBuffer},
		{"RAT Inside-NCS bits", c.RATInsideNCS},
		{"IQ NCS-Ready bits", c.IQNCSReady},
		{"dispatch buffer", c.DispatchBuffer},
		{"RAT deadlock tags", c.RATDeadlockTags},
		{"rename deadlock bits", c.RenameDeadlock},
		{"ROB extended commit groups", c.ROBCommitGroups},
		{"LQ/SQ second access fields", c.LQSQSecondAccess},
		{"serializing + store-pair bits", c.SerializingBit + c.StorePairBit},
		{"NCSF support total", c.NCSFBits()},
		{"fusion predictor", c.FusionPredictor},
		{"total (predictor + NCSF)", c.TotalBits()},
		{"flush pointers (upper bound)", c.FlushPointers},
		{"grand total", c.TotalWithFlushBits()},
	}
	for _, it := range items {
		t.AddRow(it.name, fmt.Sprint(it.bits))
	}
	return t, nil
}

// MetricsTable reports the suite's record-once/replay-many observability
// counters: functional emulations performed vs replays served from the
// trace cache, plus a sorted snapshot of the result cache. Every row is
// a deterministic function of the work requested — wall times are
// deliberately excluded (see WallTimeTable) so two identical
// `experiments -metrics` runs produce byte-identical output.
func (h *Harness) MetricsTable() *stats.Table {
	m := h.Suite.Metrics()
	t := stats.NewTable("Trace layer: record-once/replay-many counters", "counter", "value")
	for _, row := range m.Rows() {
		t.AddRow(row[0], row[1])
	}
	cached := h.Suite.CacheSnapshot()
	t.AddRow("cached results", fmt.Sprint(len(cached)))
	for i, key := range cached {
		t.AddRow(fmt.Sprintf("cached[%d]", i), key)
	}
	return t
}

// WallTimeTable reports where the wall time went: phase totals plus —
// when the scheduler fanned cells out — the elapsed fan-out time, the
// serial-equivalent sum of per-cell walls, the realized speedup and
// each cell's wall. Wall time is inherently nondeterministic, so it
// lives in its own table that cmd/experiments only prints on request
// (and to stderr), keeping the default -metrics surface byte-stable.
func (h *Harness) WallTimeTable() *stats.Table {
	m := h.Suite.Metrics()
	t := stats.NewTable("Trace layer: wall time (nondeterministic)", "phase", "time")
	for _, row := range m.WallRows() {
		t.AddRow(row[0], row[1])
	}
	return t
}

// RunAll executes every experiment and returns the tables keyed by id.
func (h *Harness) RunAll(ctx context.Context) (map[string]*stats.Table, error) {
	// Warm the cache for the modes the experiments need, fanning
	// workload×mode cells across h.Parallel scheduler workers.
	h.Suite.PrefetchN(ctx, h.Workloads, fusion.Modes, h.Parallel)
	out := make(map[string]*stats.Table)
	for _, id := range IDs() {
		tbl, err := h.Run(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out[id] = tbl
	}
	return out, nil
}

// SortedIDs returns experiment ids in stable presentation order.
func SortedIDs(m map[string]*stats.Table) []string {
	ids := make([]string, 0, len(m))
	//helios:nondeterminism-ok ids are sorted into IDs() order below
	for id := range m {
		ids = append(ids, id)
	}
	order := map[string]int{}
	for i, id := range IDs() {
		order[id] = i
	}
	sort.Slice(ids, func(i, j int) bool { return order[ids[i]] < order[ids[j]] })
	return ids
}
