// Package helios_test hosts the simulator's throughput micro-benchmarks,
// the Section IV design-space ablations, and the exact ledger
// (ledger_test.go). Wall time for the suite, the figures and heliosd is
// measured by heliosbench; cmd/experiments renders every figure and
// table.
package helios_test

import (
	"context"
	"strconv"
	"testing"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/ooo"
	"helios/internal/workloads"
)

// benchBudget keeps each ablation iteration fast enough for testing.B.
const benchBudget = 30_000

// ---- Simulator throughput micro-benchmarks ----

// BenchmarkEmulator measures functional simulation speed.
func BenchmarkEmulator(b *testing.B) {
	w, _ := workloads.ByName("crc32")
	b.ResetTimer()
	retired := 0
	for retired < b.N {
		m, err := w.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.Run(uint64(b.N - retired))
		if err != nil {
			b.Fatal(err)
		}
		retired += int(n)
	}
	b.ReportMetric(float64(retired), "insts")
}

// BenchmarkPipelineNoFusion measures cycle-level simulation speed.
func BenchmarkPipelineNoFusion(b *testing.B) {
	benchPipeline(b, fusion.ModeNoFusion)
}

// BenchmarkPipelineHelios measures simulation speed with the full Helios
// machinery enabled.
func BenchmarkPipelineHelios(b *testing.B) {
	benchPipeline(b, fusion.ModeHelios)
}

// BenchmarkPipelineOracle measures simulation speed with oracle pairing.
func BenchmarkPipelineOracle(b *testing.B) {
	benchPipeline(b, fusion.ModeOracle)
}

func benchPipeline(b *testing.B, mode fusion.Mode) {
	w, _ := workloads.ByName("xz")
	b.ResetTimer()
	done := uint64(0)
	for done < uint64(b.N) {
		r, err := core.Run(context.Background(), w, mode, min64(uint64(b.N)-done, w.MaxInsts))
		if err != nil {
			b.Fatal(err)
		}
		done += r.Stats.CommittedInsts
	}
	b.ReportMetric(float64(done), "insts")
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkUCH measures the Unfused Committed History's observe path.
func BenchmarkUCH(b *testing.B) {
	u := helios.NewUCH()
	for i := 0; i < b.N; i++ {
		u.ObserveLoad(uint64(i%97), uint64(i))
	}
}

// BenchmarkFP measures a fusion predictor lookup+train round trip.
func BenchmarkFP(b *testing.B) {
	fp := helios.NewFP()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 4096 * 4)
		fp.Predict(pc, uint64(i))
		fp.Train(pc, uint64(i), 1+i%63)
	}
}

// BenchmarkOracle measures the perfect-pairing engine's observe path.
func BenchmarkOracle(b *testing.B) {
	o := fusion.NewOracle(fusion.DefaultPairConfig())
	w, _ := workloads.ByName("typeset")
	s, err := w.Trace(uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := s.Next()
		if !ok {
			s, _ = w.Trace(uint64(b.N))
			continue
		}
		o.Observe(r)
	}
}

// BenchmarkConfigSweep exercises the whole design space on one workload:
// the ablation used by examples/fusionstudy.
func BenchmarkConfigSweep(b *testing.B) {
	w, _ := workloads.ByName("typeset")
	for i := 0; i < b.N; i++ {
		for _, m := range fusion.Modes {
			cfg := ooo.DefaultConfig(m)
			cfg.MaxUops = 10_000
			if _, err := core.RunConfig(context.Background(), w, cfg, 10_000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Design-space ablation benchmarks (Section IV discussion) ----

// BenchmarkAblationNesting sweeps the NCSF nesting depth (the paper found
// two levels sufficient).
func BenchmarkAblationNesting(b *testing.B) {
	for _, nest := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(nest), func(b *testing.B) {
			w, _ := workloads.ByName("fft")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.MaxNCSFNest = nest
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.NCSFPairs()), "ncsf")
			}
		})
	}
}

// BenchmarkAblationDistance sweeps the maximum head-tail distance
// (the paper allows 64 µ-ops).
func BenchmarkAblationDistance(b *testing.B) {
	for _, dist := range []int{4, 16, 64} {
		b.Run(strconv.Itoa(dist), func(b *testing.B) {
			w, _ := workloads.ByName("sha")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.PairCfg.MaxDist = dist
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.NCSFPairs()), "ncsf")
			}
		})
	}
}

// BenchmarkAblationUCHSize sweeps the load-side UCH capacity
// (the paper chose 6 entries).
func BenchmarkAblationUCHSize(b *testing.B) {
	for _, size := range []int{1, 2, 6, 16} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			w, _ := workloads.ByName("typeset")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.UCHLoadEntries = size
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.TotalMemPairs()), "pairs")
			}
		})
	}
}

// BenchmarkAblationConfidence compares the paper's deterministic 2-bit
// confidence against probabilistic counters (the suggested
// accuracy/coverage trade).
func BenchmarkAblationConfidence(b *testing.B) {
	configs := []struct {
		name string
		fp   helios.FPConfig
	}{
		{"thresh1", helios.FPConfig{ConfidenceThreshold: 1}},
		{"thresh3", helios.FPConfig{}},
		{"prob2", helios.FPConfig{ProbShift: 2}},
		{"prob4", helios.FPConfig{ProbShift: 4}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			w, _ := workloads.ByName("qsort")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.FP = c.fp
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(100*r.Stats.Accuracy(), "accuracy-%")
			}
		})
	}
}

// BenchmarkAblationStoreDrain sweeps the store buffer drain bandwidth,
// the resource whose pressure drives the paper's largest gains.
func BenchmarkAblationStoreDrain(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			w, _ := workloads.ByName("xz")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.StoreDrainPerCycle = n
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
			}
		})
	}
}
