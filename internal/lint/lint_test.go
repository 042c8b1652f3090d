package lint_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"helios/internal/lint"
	"helios/internal/lint/linttest"
)

// Each analyzer must fire on its seeded testdata violations and stay
// quiet on the adjacent compliant code — the analysistest-style golden
// contract.

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

// TestSimDeterminismChaos covers the fault-campaign package: a
// generator seeded from the wall clock would make a failing campaign
// unreproducible from its seed.
func TestSimDeterminismChaos(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "testdata/simdeterminism_chaos")
}

func TestCtxFirst(t *testing.T) {
	linttest.Run(t, lint.CtxFirst, "testdata/ctxfirst")
}

func TestMagicLatency(t *testing.T) {
	linttest.Run(t, lint.MagicLatency, "testdata/magiclatency")
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

// TestRegistryComplete pins the catalog, in order: adding an analyzer
// without registering it (or registering one twice) is a silent CI
// hole, and each one kept guards what no test does.
func TestRegistryComplete(t *testing.T) {
	var names []string
	for _, a := range lint.Registry() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		names = append(names, a.Name)
	}
	want := []string{
		"simdeterminism", "ctxfirst", "magiclatency",
		"hotalloc", "lockguard", "goroutinelife", "errtaxonomy",
	}
	if !slices.Equal(names, want) {
		t.Errorf("registry = %v\nwant       %v", names, want)
	}
}

// TestBareWaiversFlaggedOnce: a waiver with no reason is a finding in
// every package, once. quiet has nothing any analyzer inspects, so no
// pass would look up its waiver; core's two waivers are each looked up
// by a different analyzer (simdeterminism and goroutinelife).
func TestBareWaiversFlaggedOnce(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module waivertest\n\ngo 1.22\n",
		"quiet/quiet.go": `package quiet

// Sum has a waiver that no analyzer consults.
func Sum(xs []int) int {
	n := 0
	//helios:hotalloc-ok
	for _, x := range xs {
		n += x
	}
	return n
}
`,
		"core/core.go": `package core

import "time"

// Stamp reads the wall clock under a bare waiver.
func Stamp() int64 {
	//helios:nondeterminism-ok
	return time.Now().UnixNano()
}

// Spawn starts a goroutine under a bare waiver.
func Spawn() {
	//helios:goroutinelife-ok
	go func() {}()
}
`,
	})
	pkgs, err := lint.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.RunAll(lint.Registry(), pkgs)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d %s: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		`core.go:7 waiver: annotation //helios:nondeterminism-ok needs a reason ("//helios:nondeterminism-ok <why>")`,
		`core.go:13 waiver: annotation //helios:goroutinelife-ok needs a reason ("//helios:goroutinelife-ok <why>")`,
		`quiet.go:6 waiver: annotation //helios:hotalloc-ok needs a reason ("//helios:hotalloc-ok <why>")`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
