package helios_test

import (
	"testing"

	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/workloads"
)

// TestExactLedger pins the exact metrics of one real kernel under each
// of the six modes: the simulated cycles in ooo.Stats and the heap
// allocations per replay. Replay is deterministic, so both are exact
// for the toolchain go.mod names; every figure rests on the cycles. A
// change that moves either value updates the pin here and gives the
// reason in CHANGES.md. internal/ooo's TestExactLedgerObsOff pins the
// BenchmarkPipelineObsOff fixture the same way.
func TestExactLedger(t *testing.T) {
	w, ok := workloads.ByName("xz")
	if !ok {
		t.Fatal("workload xz not registered")
	}
	rec, err := w.Record(20_000)
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		mode   fusion.Mode
		cycles uint64
		allocs float64
	}{
		{fusion.ModeNoFusion, 12081, 4123},
		{fusion.ModeRISCVFusion, 12081, 4120},
		{fusion.ModeCSFSBR, 12081, 4188},
		{fusion.ModeRISCVFusionPP, 12081, 4188},
		{fusion.ModeHelios, 11537, 5464},
		{fusion.ModeOracle, 11524, 5750},
	}
	for _, p := range pins {
		var st *ooo.Stats
		// AllocsPerRun averages with integer division over 5 runs, so a
		// few one-off runtime allocations (a GC starting its workers)
		// vanish, while one more allocation per replay cannot.
		allocs := testing.AllocsPerRun(5, func() {
			st, err = ooo.New(ooo.DefaultConfig(p.mode), rec.Replay()).Run()
		})
		if err != nil {
			t.Fatalf("xz/%s: replay: %v", p.mode, err)
		}
		if st.Cycles != p.cycles {
			t.Errorf("xz/%s: cycles = %d, pinned %d", p.mode, st.Cycles, p.cycles)
		}
		if allocs != p.allocs {
			t.Errorf("xz/%s: allocs/replay = %.0f, pinned %.0f", p.mode, allocs, p.allocs)
		}
	}
}
