package ooo

import (
	"io"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/trace"
)

// benchRecording records the pairedLoads workload once so every
// benchmark iteration replays the identical stream with zero emulation
// cost in the measured loop.
func benchRecording(tb testing.TB) *trace.Recording {
	tb.Helper()
	prog, err := asm.Assemble(pairedLoads)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 20000))
	if err != nil {
		tb.Fatalf("record: %v", err)
	}
	return rec
}

func benchRun(b *testing.B, rec *trace.Recording, ob *obs.Observer) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(fusion.ModeHelios)
		cfg.Obs = ob
		st, err := New(cfg, rec.Replay()).Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		cycles += st.Cycles
	}
	// TestExactLedgerObsOff pins cycles/op exactly; reporting it here
	// turns a bench run's ns/op into simulated cycles/s.
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkPipelineObsOff is the overhead-contract baseline: the same
// workload as BenchmarkPipelineObsOn with observability disabled. The
// allocs/op delta between the two is the observability cost; Off must
// match a build without the hooks (nil-check only, no allocations).
func BenchmarkPipelineObsOff(b *testing.B) {
	benchRun(b, benchRecording(b), nil)
}

// BenchmarkPipelineObsOn measures full tracing + sampling against
// discarded sinks, isolating event-construction cost from I/O.
func BenchmarkPipelineObsOn(b *testing.B) {
	benchRun(b, benchRecording(b), &obs.Observer{
		PipeView:    io.Discard,
		Events:      io.Discard,
		Metrics:     io.Discard,
		SampleEvery: 1000,
	})
}

// TestExactLedgerObsOff pins BenchmarkPipelineObsOff's exact metrics:
// the simulated cycles of one Helios replay of the fixture and its heap
// allocations. Replay is deterministic, so both are exact for the
// toolchain go.mod names. A change that moves either value updates the
// pin here and gives the reason in CHANGES.md. The root package's
// TestExactLedger pins a real kernel under all six modes the same way.
func TestExactLedgerObsOff(t *testing.T) {
	const wantCycles, wantAllocs = 4524, 4330
	rec := benchRecording(t)
	var st *Stats
	var err error
	// AllocsPerRun averages with integer division over 5 runs, so a few
	// one-off runtime allocations (a GC starting its workers) vanish,
	// while one more allocation per replay cannot.
	allocs := testing.AllocsPerRun(5, func() {
		st, err = New(DefaultConfig(fusion.ModeHelios), rec.Replay()).Run()
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.Cycles != wantCycles {
		t.Errorf("cycles = %d, pinned %d", st.Cycles, wantCycles)
	}
	if allocs != wantAllocs {
		t.Errorf("allocs/replay = %.0f, pinned %d", allocs, wantAllocs)
	}
}

// TestCommitObsOffNoAllocs pins the disabled-path contract at the exact
// hook site: with Obs nil, the per-retire accounting (counters plus the
// three histograms plus the nil-checked event hook) allocates nothing.
func TestCommitObsOffNoAllocs(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeNoFusion), trace.Func(func() (emu.Retired, bool) {
		return emu.Retired{}, false
	}))
	u := &pUop{seq: 1, renamedAt: 5, issuedAt: 8, completeAt: 13}
	allocs := testing.AllocsPerRun(200, func() { p.accountCommit(u) })
	if allocs != 0 {
		t.Errorf("accountCommit with obs disabled allocated %.1f times per run, want 0", allocs)
	}
}
