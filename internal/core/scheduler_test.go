package core

import (
	"context"
	"reflect"
	"testing"

	"helios/internal/fusion"
)

// TestRunCellsIndexedAssembly pins the scheduler's determinism contract:
// results come back at the index of their input cell regardless of
// worker count or completion order, and the cached Results are the very
// same objects a serial suite would hand out.
func TestRunCellsIndexedAssembly(t *testing.T) {
	cells := []Cell{
		{Workload: "crc32", Mode: fusion.ModeNoFusion},
		{Workload: "crc32", Mode: fusion.ModeHelios},
		{Workload: "sha", Mode: fusion.ModeNoFusion},
		{Workload: "sha", Mode: fusion.ModeHelios},
	}

	par := NewSuite(15_000)
	got := par.RunCells(context.Background(), cells, 8)
	if len(got) != len(cells) {
		t.Fatalf("got %d results, want %d", len(got), len(cells))
	}
	ser := NewSuite(15_000)
	want := ser.RunCells(context.Background(), cells, 1)

	for i, cr := range got {
		if cr.Err != nil {
			t.Fatalf("cell %d: %v", i, cr.Err)
		}
		if cr.Cell != cells[i] {
			t.Errorf("result %d carries cell %+v, want %+v (index-keyed assembly broken)", i, cr.Cell, cells[i])
		}
		if cr.Result.Workload != cells[i].Workload || cr.Result.Mode != cells[i].Mode {
			t.Errorf("result %d is for %s/%v, want %s/%v",
				i, cr.Result.Workload, cr.Result.Mode, cells[i].Workload, cells[i].Mode)
		}
		if !reflect.DeepEqual(cr.Result.Stats, want[i].Result.Stats) {
			t.Errorf("cell %d: parallel stats differ from serial", i)
		}
		if cr.Wall <= 0 {
			t.Errorf("cell %d: wall time not recorded", i)
		}
	}

	// A later Get must hit the cache populated by the fan-out.
	r, err := par.Get(context.Background(), "crc32", fusion.ModeHelios)
	if err != nil {
		t.Fatal(err)
	}
	if r != got[1].Result {
		t.Error("Get after RunCells did not reuse the fanned-out result")
	}
}

// TestRunCellsDeterministicMetrics checks that the deterministic
// counters are a pure function of the work requested, independent of
// worker count: one trace miss per workload (the record phase stays
// singleflighted), every other recording access a hit, no deduped runs
// for distinct cells — so `-metrics` output is byte-identical between
// serial and parallel runs.
func TestRunCellsDeterministicMetrics(t *testing.T) {
	names := []string{"crc32", "sha"}
	modes := []fusion.Mode{fusion.ModeNoFusion, fusion.ModeCSFSBR, fusion.ModeHelios}
	for _, workers := range []int{1, 2, 16} {
		s := NewSuite(15_000)
		s.PrefetchN(context.Background(), names, modes, workers)
		m := s.Metrics()
		cells := uint64(len(names) * len(modes))
		if m.TraceMisses != uint64(len(names)) {
			t.Errorf("workers=%d: TraceMisses = %d, want %d (record phase must stay singleflighted)",
				workers, m.TraceMisses, len(names))
		}
		if m.TraceHits != cells-uint64(len(names)) {
			t.Errorf("workers=%d: TraceHits = %d, want %d", workers, m.TraceHits, cells-uint64(len(names)))
		}
		if m.Replays != cells || m.PipelineRuns != cells {
			t.Errorf("workers=%d: Replays/PipelineRuns = %d/%d, want %d", workers, m.Replays, m.PipelineRuns, cells)
		}
		if m.DedupedRuns != 0 {
			t.Errorf("workers=%d: DedupedRuns = %d, want 0 for distinct cells", workers, m.DedupedRuns)
		}
		if m.FanoutWall <= 0 || len(m.CellWalls) != int(cells) {
			t.Errorf("workers=%d: wall accounting missing (fanout=%v, cells=%d)", workers, m.FanoutWall, len(m.CellWalls))
		}
		for i, cw := range m.CellWalls {
			wantCell := Cell{Workload: names[i/len(modes)], Mode: modes[i%len(modes)]}
			if (Cell{Workload: cw.Workload, Mode: cw.Mode}) != wantCell {
				t.Errorf("workers=%d: CellWalls[%d] = %s/%v, want %s/%v (order must be input order)",
					workers, i, cw.Workload, cw.Mode, wantCell.Workload, wantCell.Mode)
			}
		}
	}
}

// TestCellWallsDescribeLatestFanout checks that the wall log is bounded
// by one fan-out: after two RunCells calls on one suite, CellWalls holds
// exactly the second call's cells in input order, and FanoutWall is the
// second call's elapsed time, not a running sum. The second call's cells
// are cached by the first, so its fan-out is far shorter than the first.
func TestCellWallsDescribeLatestFanout(t *testing.T) {
	s := NewSuite(20_000)
	first := []Cell{
		{Workload: "crc32", Mode: fusion.ModeNoFusion},
		{Workload: "crc32", Mode: fusion.ModeHelios},
		{Workload: "sha", Mode: fusion.ModeNoFusion},
	}
	s.RunCells(context.Background(), first, 2)
	firstWall := s.Metrics().FanoutWall

	second := []Cell{first[2], first[0]}
	s.RunCells(context.Background(), second, 2)
	m := s.Metrics()
	if len(m.CellWalls) != len(second) {
		t.Fatalf("CellWalls holds %d cells after fan-outs of %d and %d, want the latest %d",
			len(m.CellWalls), len(first), len(second), len(second))
	}
	for i, cw := range m.CellWalls {
		if (Cell{Workload: cw.Workload, Mode: cw.Mode}) != second[i] {
			t.Errorf("CellWalls[%d] = %s/%v, want %s/%v", i, cw.Workload, cw.Mode, second[i].Workload, second[i].Mode)
		}
	}
	if m.FanoutWall >= firstWall {
		t.Errorf("FanoutWall = %v after a cached fan-out, first fan-out took %v: want the latest fan-out's time, not a sum",
			m.FanoutWall, firstWall)
	}
}

// TestRunCellsCancellation checks that a dead context stops the fan-out:
// cells that were not started carry the context error and nothing is
// cached for them.
func TestRunCellsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSuite(15_000)
	cells := []Cell{
		{Workload: "crc32", Mode: fusion.ModeNoFusion},
		{Workload: "sha", Mode: fusion.ModeHelios},
	}
	out := s.RunCells(ctx, cells, 2)
	for i, cr := range out {
		if cr.Err == nil {
			t.Errorf("cell %d: no error from a cancelled fan-out", i)
		}
		if cr.Cell != cells[i] {
			t.Errorf("cell %d: result slot carries %+v", i, cr.Cell)
		}
	}
	if m := s.Metrics(); m.PipelineRuns != 0 {
		t.Errorf("cancelled fan-out ran %d pipelines, want 0", m.PipelineRuns)
	}
}
