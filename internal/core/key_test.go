package core

import (
	"context"
	"strings"
	"testing"

	"helios/internal/fusion"
	"helios/internal/ooo"
)

// TestGetBudgetKeysResultsByBudget pins the cache-key contract: results
// are keyed by (workload, machine config, budget), so two budgets for
// the same workload/mode are distinct entries and a budget change can
// never be served from a stale result.
func TestGetBudgetKeysResultsByBudget(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(0)

	small, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.CommittedInsts == large.Stats.CommittedInsts {
		t.Fatalf("budgets 2000 and 8000 committed the same instruction count (%d): stale result served",
			small.Stats.CommittedInsts)
	}
	again, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if again != small {
		t.Error("identical budget did not hit the cache")
	}

	snap := s.CacheSnapshot()
	want := []string{"crc32/NoFusion@2000", "crc32/NoFusion@8000"}
	for i, k := range want {
		if snap[i] != k {
			t.Errorf("CacheSnapshot[%d] = %q, want %q", i, snap[i], k)
		}
	}
}

// TestSuiteBudgetChangeNeverStale reproduces the pre-fix bug directly: a
// caller mutates Suite.MaxInsts between Gets. With budget folded into
// the key the second Get must re-simulate, not serve the old budget's
// result.
func TestSuiteBudgetChangeNeverStale(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(2_000)
	first, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxInsts = 8_000
	second, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.Stats.CommittedInsts == first.Stats.CommittedInsts {
		t.Fatalf("budget change served a stale result (committed %d both times)",
			first.Stats.CommittedInsts)
	}
}

// TestEngineVersionShape: the engine identity every persistent result
// key embeds must carry the semantic schema; the VCS suffix is
// build-dependent.
func TestEngineVersionShape(t *testing.T) {
	v := EngineVersion()
	if !strings.HasPrefix(v, "helios-engine/") {
		t.Fatalf("EngineVersion() = %q, want helios-engine/ prefix", v)
	}
	if v != EngineVersion() {
		t.Error("EngineVersion is not stable within a process")
	}
}

// TestReplayConfigDegradesCorruptRecording: the custom-config replay
// path (heliosd's non-default-machine requests) must share the
// graceful-degradation contract with Get — a corrupt cached recording
// costs one live re-emulation, not an error.
func TestReplayConfigDegradesCorruptRecording(t *testing.T) {
	const budget = 20_000
	s := NewSuite(budget)
	s.SeedRecording(corruptRecording("crc32", budget))

	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.ROBSize = 64 // a non-default machine
	r, err := s.ReplayConfig(context.Background(), "crc32", cfg, budget)
	if err != nil {
		t.Fatalf("ReplayConfig did not degrade a corrupt recording: %v", err)
	}
	if r.Stats.CommittedInsts == 0 {
		t.Fatal("empty result after repair")
	}
	if got := s.Metrics().LiveFallbacks; got != 1 {
		t.Errorf("LiveFallbacks = %d, want exactly 1", got)
	}
}
