package lint_test

import (
	"testing"

	"helios/internal/lint"
	"helios/internal/lint/linttest"
)

// Each analyzer must fire on its seeded testdata violations and stay
// quiet on the adjacent compliant code — the analysistest-style golden
// contract from ISSUE 3.

func TestSimDeterminism(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "testdata/simdeterminism")
}

// TestSimDeterminismScheduler covers the scheduler-layer packages
// (core, experiments) added to the analyzer's scope alongside the
// cycle-accurate ones: work distribution over a map or an unannotated
// wall-clock read would let parallel suite runs drift from serial ones.
func TestSimDeterminismScheduler(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "testdata/simdeterminism_core")
}

func TestSeededRand(t *testing.T) {
	linttest.Run(t, lint.SeededRand, "testdata/seededrand")
}

func TestStatsComplete(t *testing.T) {
	linttest.Run(t, lint.StatsComplete, "testdata/statscomplete")
}

func TestCtxFirst(t *testing.T) {
	linttest.Run(t, lint.CtxFirst, "testdata/ctxfirst")
}

func TestMagicLatency(t *testing.T) {
	linttest.Run(t, lint.MagicLatency, "testdata/magiclatency")
}

func TestErrPolicy(t *testing.T) {
	linttest.Run(t, lint.ErrPolicy, "testdata/errpolicy")
}

// The call-graph four (DESIGN.md §10). Each testdata package is a
// closed single-package universe: linttest wraps it in a one-package
// Module, so reachability, waivers and guard-set inference all resolve
// without loading the real repo.

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/hotalloc")
}

func TestLockGuard(t *testing.T) {
	linttest.Run(t, lint.LockGuard, "testdata/lockguard")
}

func TestGoroutineLife(t *testing.T) {
	linttest.Run(t, lint.GoroutineLife, "testdata/goroutinelife")
}

func TestErrTaxonomy(t *testing.T) {
	linttest.Run(t, lint.ErrTaxonomy, "testdata/errtaxonomy")
}

// TestRegistryComplete pins the catalog: adding an analyzer without
// registering it (or registering one twice) is a silent CI hole.
func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.Registry() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if names[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"simdeterminism", "seededrand", "statscomplete",
		"ctxfirst", "magiclatency", "errpolicy",
		"hotalloc", "lockguard", "goroutinelife", "errtaxonomy",
	} {
		if !names[want] {
			t.Errorf("registry missing analyzer %q", want)
		}
	}
}
