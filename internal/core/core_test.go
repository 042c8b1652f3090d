package core

import (
	"context"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/fusion"
	"helios/internal/workloads"
)

func TestRunOneWorkload(t *testing.T) {
	w, ok := workloads.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	r, err := Run(context.Background(), w, fusion.ModeNoFusion, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "crc32" || r.Mode != fusion.ModeNoFusion {
		t.Errorf("result metadata wrong: %+v", r)
	}
	if r.Stats.CommittedInsts < 29_000 {
		t.Errorf("committed %d, want ≈ 30000", r.Stats.CommittedInsts)
	}
	if r.Stats.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestSuiteCaches(t *testing.T) {
	s := NewSuite(20_000)
	a, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Get should return the cached result pointer")
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	s := NewSuite(1000)
	if _, err := s.Get(context.Background(), "nope", fusion.ModeNoFusion); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestPrefetchFillsCache(t *testing.T) {
	s := NewSuite(10_000)
	names := []string{"crc32", "sha"}
	modes := []fusion.Mode{fusion.ModeNoFusion, fusion.ModeHelios}
	s.PrefetchN(context.Background(), names, modes, 0)
	var hits int64
	for _, n := range names {
		for _, m := range modes {
			if r, err := s.Get(context.Background(), n, m); err == nil && r != nil {
				atomic.AddInt64(&hits, 1)
			}
		}
	}
	if hits != 4 {
		t.Errorf("cached results = %d, want 4", hits)
	}
}

// TestSuiteSingleflight hammers one (workload, mode) key from many
// goroutines: exactly one pipeline run and one functional emulation must
// happen, every caller must see the same result pointer, and the rest
// must be accounted as deduplicated. Run under -race this also checks the
// cache/flight locking.
func TestSuiteSingleflight(t *testing.T) {
	const callers = 8
	s := NewSuite(20_000)
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	m := s.Metrics()
	if m.PipelineRuns != 1 {
		t.Errorf("PipelineRuns = %d, want 1", m.PipelineRuns)
	}
	if m.TraceMisses != 1 {
		t.Errorf("TraceMisses = %d, want 1", m.TraceMisses)
	}
	if m.TraceHits != 0 {
		t.Errorf("TraceHits = %d, want 0", m.TraceHits)
	}
}

// TestSuiteTraceReuseAcrossModes: a second fusion mode on the same
// workload must replay the recorded trace, not re-emulate.
func TestSuiteTraceReuseAcrossModes(t *testing.T) {
	s := NewSuite(15_000)
	if _, err := s.Get(context.Background(), "sha", fusion.ModeNoFusion); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "sha", fusion.ModeHelios); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.TraceMisses != 1 || m.TraceHits != 1 {
		t.Errorf("trace cache: misses=%d hits=%d, want 1/1", m.TraceMisses, m.TraceHits)
	}
	if m.Replays != 2 || m.PipelineRuns != 2 {
		t.Errorf("replays=%d runs=%d, want 2/2", m.Replays, m.PipelineRuns)
	}
	if m.EmuTime <= 0 || m.SimTime <= 0 {
		t.Errorf("wall-time counters not populated: emu=%v sim=%v", m.EmuTime, m.SimTime)
	}
}

func TestDeterministicResults(t *testing.T) {
	w, _ := workloads.ByName("sha")
	a, err := Run(context.Background(), w, fusion.ModeHelios, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), w, fusion.ModeHelios, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("non-deterministic simulation:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestMetricsRowsCarryEveryField fills every Metrics field with a
// distinct value. Each counter must appear in Rows, and each duration
// and cell wall in WallRows, so a field added without a row fails here.
func TestMetricsRowsCarryEveryField(t *testing.T) {
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	counters, walls := map[string]string{}, map[string]string{} // value → field
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		d := time.Duration(1001+i) * time.Millisecond
		switch f.Interface().(type) {
		case uint64:
			f.SetUint(uint64(1001 + i))
			counters[strconv.Itoa(1001+i)] = name
		case time.Duration:
			f.SetInt(int64(d))
			walls[d.String()] = name
		case []CellWall:
			// Two cells, so neither wall can hide behind their sum.
			d2 := d + 100*time.Millisecond
			m.CellWalls = []CellWall{
				{Workload: "crc32", Mode: fusion.ModeHelios, Wall: d},
				{Workload: "sha", Mode: fusion.ModeNoFusion, Wall: d2},
			}
			walls[d.String()], walls[d2.String()] = name+"[0]", name+"[1]"
		default:
			t.Fatalf("Metrics.%s has unhandled type %s: extend this test and the rows", name, f.Type())
		}
	}
	for _, c := range []struct {
		rows [][2]string
		want map[string]string
	}{{m.Rows(), counters}, {m.WallRows(), walls}} {
		got := map[string]bool{}
		for _, r := range c.rows {
			got[r[1]] = true
		}
		for value, field := range c.want {
			if !got[value] {
				t.Errorf("Metrics.%s = %s is missing from its rows %v", field, value, c.rows)
			}
		}
	}
}
