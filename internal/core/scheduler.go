package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/fusion"
	"helios/internal/telemetry"
)

// Cell is one workload×mode unit of suite work: the granularity at which
// the scheduler fans the replay phase out across workers. Budget is the
// per-cell instruction bound (0 = the suite's budget); heliosd's suite
// endpoint sets it so mixed-budget request matrices share one scheduler.
type Cell struct {
	Workload string
	Mode     fusion.Mode
	Budget   uint64
}

// CellWall is the observed wall time of one scheduled cell. With cells
// running concurrently the per-cell walls no longer sum to the elapsed
// time; WallRows reports both plus the implied speedup.
type CellWall struct {
	Workload string
	Mode     fusion.Mode
	Wall     time.Duration
}

// CellResult pairs a cell with its outcome. RunCells returns results
// indexed exactly like its input — position i is always cells[i] — so
// callers assemble tables without any completion-order dependence.
type CellResult struct {
	Cell   Cell
	Result *Result
	Err    error
	Wall   time.Duration
}

// RunCells is the suite scheduler: it fans the cells across a bounded
// worker pool and returns the results in input order.
//
// Determinism contract (DESIGN.md §13): work is issued in slice order
// from a shared atomic cursor (never by ranging over a map), each result
// is written to its own index, and the record phase stays singleflighted
// per workload inside Suite — the first cell to need a recording
// emulates, every other cell waits on the same in-flight entry. The
// cached Results and every deterministic Metrics counter are therefore
// identical to a serial run; only wall times differ.
//
// workers ≤ 0 selects GOMAXPROCS. Cancellation stops workers from
// starting new cells; a cancelled cell carries ctx's error.
func (s *Suite) RunCells(ctx context.Context, cells []Cell, workers int) []CellResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	out := make([]CellResult, len(cells))
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it

	// When the caller's context carries a telemetry trace (heliosd suite
	// requests, `experiments -trace`), each worker runs on lane 1+worker:
	// its cell spans, and every span Suite opens inside a cell, land
	// there and nest under the cell — the per-worker lanes render as a
	// scheduler utilization timeline in Perfetto. With no trace attached
	// WithLane returns ctx unchanged and every span call is a
	// zero-allocation no-op, preserving the scheduler's hot-path budget.
	// Span wall times live outside the deterministic Metrics surface
	// (DESIGN.md §15's quarantine rule).
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wctx := telemetry.WithLane(ctx, 1+worker)
			for {
				i := int(cursor.Add(1))
				if i >= len(cells) {
					return
				}
				c := cells[i]
				if err := ctx.Err(); err != nil {
					out[i] = CellResult{Cell: c, Err: err}
					continue
				}
				sp := telemetry.StartSpan(wctx, "cell")
				sp.SetAttr("workload", c.Workload)
				sp.SetAttr("mode", c.Mode.String())
				t0 := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
				r, err := s.GetBudget(wctx, c.Workload, c.Mode, c.Budget)
				out[i] = CellResult{Cell: c, Result: r, Err: err, Wall: time.Since(t0)}
				sp.SetBool("err", err != nil)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Wall accounting happens after the barrier, in input order, so the
	// CellWalls slice has a deterministic order even though its values
	// are wall-clock measurements. It replaces the previous fan-out's: a
	// long-lived suite (heliosd) fans out once per request, and an
	// accumulating log would grow without bound.
	walls := make([]CellWall, len(out))
	for i, cr := range out {
		walls[i] = CellWall{Workload: cr.Cell.Workload, Mode: cr.Cell.Mode, Wall: cr.Wall}
	}
	s.mu.Lock()
	s.metrics.FanoutWall = elapsed
	s.metrics.CellWalls = walls
	s.mu.Unlock()
	return out
}

// PrefetchN fills the result cache for every name×mode cell using at
// most `workers` concurrent replays (≤ 0 = GOMAXPROCS). Errors are
// cached and surface on the corresponding Get, exactly as with a serial
// warm-up; `workers == 1` is the serial path.
func (s *Suite) PrefetchN(ctx context.Context, names []string, modes []fusion.Mode, workers int) {
	cells := make([]Cell, 0, len(names)*len(modes))
	for _, n := range names {
		for _, m := range modes {
			cells = append(cells, Cell{Workload: n, Mode: m})
		}
	}
	s.RunCells(ctx, cells, workers)
}
