package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"helios/internal/stats"
)

// Pair is one workload matched across the two manifest sets.
type Pair struct {
	Workload     string
	Base, Target *Manifest
}

// Diff is the aligned comparison of two manifest directories.
type Diff struct {
	BaseLabel, TargetLabel string
	Pairs                  []Pair   // matched workloads, sorted by name
	BaseOnly, TargetOnly   []string // workloads present on one side only
}

// NewDiff aligns two manifest sets by workload name. Both inputs are
// sorted (LoadDir guarantees it), so a two-pointer merge keeps the
// output order deterministic without any map iteration.
func NewDiff(baseLabel string, base []*Manifest, targetLabel string, target []*Manifest) *Diff {
	d := &Diff{BaseLabel: baseLabel, TargetLabel: targetLabel}
	i, j := 0, 0
	for i < len(base) && j < len(target) {
		switch {
		case base[i].Workload == target[j].Workload:
			d.Pairs = append(d.Pairs, Pair{base[i].Workload, base[i], target[j]})
			i++
			j++
		case base[i].Workload < target[j].Workload:
			d.BaseOnly = append(d.BaseOnly, base[i].Workload)
			i++
		default:
			d.TargetOnly = append(d.TargetOnly, target[j].Workload)
			j++
		}
	}
	for ; i < len(base); i++ {
		d.BaseOnly = append(d.BaseOnly, base[i].Workload)
	}
	for ; j < len(target); j++ {
		d.TargetOnly = append(d.TargetOnly, target[j].Workload)
	}
	return d
}

// tdBuckets orders the top-down presentation; names match
// stats.TDBucket's, so the markdown cross-references the raw counters.
var tdBuckets = []struct {
	name string
	get  func(*stats.TopDown) uint64
}{
	{"retiring", func(t *stats.TopDown) uint64 { return t.Retiring }},
	{"fused_retiring", func(t *stats.TopDown) uint64 { return t.FusedRetiring }},
	{"frontend_latency", func(t *stats.TopDown) uint64 { return t.FrontendLatency }},
	{"frontend_bandwidth", func(t *stats.TopDown) uint64 { return t.FrontendBandwidth }},
	{"bad_speculation", func(t *stats.TopDown) uint64 { return t.BadSpeculation }},
	{"backend_core", func(t *stats.TopDown) uint64 { return t.BackendCore }},
	{"backend_mem_l1d", func(t *stats.TopDown) uint64 { return t.BackendMemL1D }},
	{"backend_mem_l2", func(t *stats.TopDown) uint64 { return t.BackendMemL2 }},
	{"backend_mem_llc", func(t *stats.TopDown) uint64 { return t.BackendMemLLC }},
	{"backend_mem_dram", func(t *stats.TopDown) uint64 { return t.BackendMemDRAM }},
}

// histograms lists the latency distributions compared per workload and
// (via Merge) at suite level.
var histograms = []struct {
	name string
	get  func(*Manifest) *stats.Histogram
}{
	{"issue_wait", func(m *Manifest) *stats.Histogram { return &m.Stats.IssueWaitHist }},
	{"load_to_use", func(m *Manifest) *stats.Histogram { return &m.Stats.LoadToUseHist }},
	{"flush_recovery", func(m *Manifest) *stats.Histogram { return &m.Stats.FlushRecoveryHist }},
}

// pct renders v as a percentage of total with two decimals.
func pct(v, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}

// z flushes deltas smaller than the rendered precision to +0, so a
// float rounding residue never prints as "-0.00".
func z(d float64) float64 {
	if math.Abs(d) < 0.005 {
		return 0
	}
	return d
}

// perKinst renders a count per thousand committed instructions.
func perKinst(v, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return 1000 * float64(v) / float64(insts)
}

// modeSet summarizes the fusion modes of one side (normally a single
// mode per directory, but the diff does not require it).
func modeSet(ms []*Manifest) string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range ms {
		if !seen[m.Mode] {
			seen[m.Mode] = true
			out = append(out, m.Mode)
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// buildCell renders one side's build identity for the header table.
func buildCell(b BuildInfo) string {
	rev := b.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if b.Modified {
		rev += "+dirty"
	}
	return fmt.Sprintf("%s %s (%s, %s)", b.Module, b.Version, b.Go, rev)
}

// Markdown renders the full differential report. The only error source
// is suite-level histogram merging, which rejects internally
// inconsistent (foreign-geometry) data rather than printing wrong
// percentiles.
func (d *Diff) Markdown() (string, error) {
	var b strings.Builder
	f := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	f("# Differential report: %s vs %s\n\n", d.BaseLabel, d.TargetLabel)

	// Run identity.
	f("| side | label | mode | build |\n|---|---|---|---|\n")
	baseMs := make([]*Manifest, 0, len(d.Pairs))
	targetMs := make([]*Manifest, 0, len(d.Pairs))
	for _, p := range d.Pairs {
		baseMs = append(baseMs, p.Base)
		targetMs = append(targetMs, p.Target)
	}
	baseBuild, targetBuild := "n/a", "n/a"
	if len(baseMs) > 0 {
		baseBuild = buildCell(baseMs[0].Build)
	}
	if len(targetMs) > 0 {
		targetBuild = buildCell(targetMs[0].Build)
	}
	f("| base | %s | %s | %s |\n", d.BaseLabel, modeSet(baseMs), baseBuild)
	f("| target | %s | %s | %s |\n\n", d.TargetLabel, modeSet(targetMs), targetBuild)

	// IPC per workload with geomean speedup.
	f("## IPC\n\n")
	f("| workload | %s | %s | Δ | speedup |\n|---|---|---|---|---|\n", d.BaseLabel, d.TargetLabel)
	logSum, logN := 0.0, 0
	for _, p := range d.Pairs {
		bi, ti := p.Base.Stats.IPC(), p.Target.Stats.IPC()
		speed := "n/a"
		if bi > 0 {
			s := ti / bi
			speed = fmt.Sprintf("%.4f", s)
			if s > 0 {
				logSum += math.Log(s)
				logN++
			}
		}
		f("| %s | %.4f | %.4f | %+.4f | %s |\n", p.Workload, bi, ti, ti-bi, speed)
	}
	if logN > 0 {
		f("| **geomean** | | | | %.4f |\n", math.Exp(logSum/float64(logN)))
	}
	f("\n")

	// Top-down decomposition: where did the slots move?
	f("## Top-down slot decomposition\n\n")
	f("Bucket shares are percentages of each run's slot budget")
	f(" (DispatchWidth × cycles); Δ is in percentage points.\n\n")
	for _, p := range d.Pairs {
		bt, tt := &p.Base.Stats.TopDown, &p.Target.Stats.TopDown
		f("### %s\n\n", p.Workload)
		f("| bucket | %s %% | %s %% | Δ pp |\n|---|---|---|---|\n", d.BaseLabel, d.TargetLabel)
		for _, bk := range tdBuckets {
			bp := pct(bk.get(bt), bt.SlotBudget())
			tp := pct(bk.get(tt), tt.SlotBudget())
			f("| %s | %.2f | %.2f | %+.2f |\n", bk.name, bp, tp, z(tp-bp))
		}
		f("\n")
	}

	// Fusion coverage.
	f("## Fusion coverage\n\n")
	f("| workload | fused frac Δ | csf/kinst Δ | ncsf/kinst Δ | idioms/kinst Δ |\n")
	f("|---|---|---|---|---|\n")
	for _, p := range d.Pairs {
		bs, ts := &p.Base.Stats, &p.Target.Stats
		f("| %s | %+.4f | %+.2f | %+.2f | %+.2f |\n", p.Workload,
			ts.FusedUopFraction()-bs.FusedUopFraction(),
			perKinst(ts.CSFPairs(), ts.CommittedInsts)-perKinst(bs.CSFPairs(), bs.CommittedInsts),
			perKinst(ts.NCSFPairs(), ts.CommittedInsts)-perKinst(bs.NCSFPairs(), bs.CommittedInsts),
			perKinst(ts.FusedIdiom+ts.FusedMemIdiom, ts.CommittedInsts)-
				perKinst(bs.FusedIdiom+bs.FusedMemIdiom, bs.CommittedInsts))
	}
	f("\n")

	// Latency distribution shifts, per workload and suite-wide.
	f("## Latency distribution shifts\n\n")
	for _, h := range histograms {
		f("### %s\n\n", h.name)
		f("| workload | P50 | P95 | P99 |\n|---|---|---|---|\n")
		var baseAll, targetAll stats.Histogram
		for _, p := range d.Pairs {
			bh, th := h.get(p.Base), h.get(p.Target)
			if err := baseAll.Merge(bh); err != nil {
				return "", fmt.Errorf("%s/%s (%s): %w", p.Workload, h.name, d.BaseLabel, err)
			}
			if err := targetAll.Merge(th); err != nil {
				return "", fmt.Errorf("%s/%s (%s): %w", p.Workload, h.name, d.TargetLabel, err)
			}
			f("| %s | %d → %d | %d → %d | %d → %d |\n", p.Workload,
				bh.Percentile(50), th.Percentile(50),
				bh.Percentile(95), th.Percentile(95),
				bh.Percentile(99), th.Percentile(99))
		}
		f("| **suite** | %d → %d | %d → %d | %d → %d |\n\n",
			baseAll.Percentile(50), targetAll.Percentile(50),
			baseAll.Percentile(95), targetAll.Percentile(95),
			baseAll.Percentile(99), targetAll.Percentile(99))
	}

	// Alignment losses are part of the result, not a silent drop.
	if len(d.BaseOnly)+len(d.TargetOnly) > 0 {
		f("## Unmatched workloads\n\n")
		for _, w := range d.BaseOnly {
			f("- `%s` only in %s\n", w, d.BaseLabel)
		}
		for _, w := range d.TargetOnly {
			f("- `%s` only in %s\n", w, d.TargetLabel)
		}
		f("\n")
	}
	return b.String(), nil
}

// CSV renders one flat row per matched workload for spreadsheet
// consumption; columns mirror the markdown sections.
func (d *Diff) CSV() string {
	var b strings.Builder
	cols := []string{"workload", "base_mode", "target_mode", "base_ipc", "target_ipc", "speedup"}
	for _, bk := range tdBuckets {
		cols = append(cols, "d_"+bk.name+"_pp")
	}
	cols = append(cols, "d_fused_frac")
	for _, h := range histograms {
		cols = append(cols, h.name+"_base_p99", h.name+"_target_p99")
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, p := range d.Pairs {
		bi, ti := p.Base.Stats.IPC(), p.Target.Stats.IPC()
		speed := "n/a"
		if bi > 0 {
			speed = fmt.Sprintf("%.4f", ti/bi)
		}
		row := []string{p.Workload, p.Base.Mode, p.Target.Mode,
			fmt.Sprintf("%.4f", bi), fmt.Sprintf("%.4f", ti), speed}
		bt, tt := &p.Base.Stats.TopDown, &p.Target.Stats.TopDown
		for _, bk := range tdBuckets {
			row = append(row, fmt.Sprintf("%.2f",
				z(pct(bk.get(tt), tt.SlotBudget())-pct(bk.get(bt), bt.SlotBudget()))))
		}
		row = append(row, fmt.Sprintf("%.4f",
			p.Target.Stats.FusedUopFraction()-p.Base.Stats.FusedUopFraction()))
		for _, h := range histograms {
			row = append(row, fmt.Sprint(h.get(p.Base).Percentile(99)),
				fmt.Sprint(h.get(p.Target).Percentile(99)))
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
