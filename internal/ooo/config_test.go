package ooo

import (
	"strings"
	"testing"

	"helios/internal/asm"
	"helios/internal/cache"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/trace"
)

// floorConfig returns mode's machine with every field Check bounds at
// its lower bound.
func floorConfig(mode fusion.Mode) Config {
	c := DefaultConfig(mode)
	c.FetchWidth, c.DecodeWidth, c.RenameWidth, c.DispatchWidth, c.CommitWidth = 1, 1, 1, 1, 1
	c.AQSize, c.ROBSize, c.IQSize, c.LQSize, c.SQSize = 1, 1, 1, 1, 1
	c.PhysRegs = minPhysRegs
	c.ALUPorts, c.LoadPorts, c.StorePorts = 1, 1, 1
	c.ALULatency, c.MulLatency, c.DivLatency, c.RedirectPenalty = 1, 1, 1, 1
	c.StoreDrainPerCycle, c.MaxNCSFNest = 1, 1
	c.TAGELogSize, c.StoreSetLogSize, c.StoreSetLogSets = 1, 1, 1
	c.BTBSets, c.BTBWays, c.RASSize = 1, 1, 1
	c.PairCfg.LineSize, c.PairCfg.MaxDist = 1, 1
	c.Cache.LineSize, c.Cache.MemLatency = 1, 1
	for _, l := range []*cache.LevelConfig{&c.Cache.L1I, &c.Cache.L1D, &c.Cache.L2, &c.Cache.LLC} {
		l.Sets, l.Ways, l.LineSize, l.Latency = 1, 1, 1, 1
	}
	return c
}

// TestConfigFloorRuns checks that Check's lower bounds are enough to
// run: the machine with every bounded field at its floor passes Check
// and commits the functional instruction count in every mode.
func TestConfigFloorRuns(t *testing.T) {
	prog, err := asm.Assemble(ncsfLoads)
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(prog)
	want, err := ref.Run(1_000_000)
	if err != nil || !ref.Halted() {
		t.Fatalf("emulate: %v halted=%v", err, ref.Halted())
	}
	for _, mode := range fusion.Modes {
		cfg := floorConfig(mode)
		if err := cfg.Check(); err != nil {
			t.Fatalf("%v: floor config fails Check: %v", mode, err)
		}
		st, err := New(cfg, trace.NewLive(emu.New(prog), 0)).RunChecked(16)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st.CommittedInsts != want {
			t.Errorf("%v: committed %d, want %d", mode, st.CommittedInsts, want)
		}
	}
}

// TestConfigCheckNamesField checks that each value below a floor or
// above a cap, including the products of two in-range factors, is
// reported under its field's name. serve's TestHostileConfigs covers the
// configs Check must accept.
func TestConfigCheckNamesField(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Config)
	}{
		{"Mode", func(c *Config) { c.Mode = fusion.Mode(len(fusion.Modes)) }},
		{"FetchWidth", func(c *Config) { c.FetchWidth = -1 }},
		{"ROBSize", func(c *Config) { c.ROBSize = maxEntries + 1 }},
		{"PhysRegs", func(c *Config) { c.PhysRegs = minPhysRegs - 1 }},
		{"DivLatency", func(c *Config) { c.DivLatency = maxLatency + 1 }},
		{"TAGELogSize", func(c *Config) { c.TAGELogSize = maxLogSize + 1 }},
		{"BTBSets×BTBWays", func(c *Config) { c.BTBSets, c.BTBWays = maxEntries, 2 }},
		{"PairCfg.MaxDist", func(c *Config) { c.PairCfg.MaxDist = 0 }},
		{"UCHLoadEntries", func(c *Config) { c.UCHLoadEntries = -1 }},
		{"Cache.L1D.Sets", func(c *Config) { c.Cache.L1D.Sets = 0 }},
		{"Cache.LLC.Sets×Ways", func(c *Config) { c.Cache.LLC.Sets, c.Cache.LLC.Ways = maxEntries, 16 }},
		{"Cache.MemLatency", func(c *Config) { c.Cache.MemLatency = -200 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(fusion.ModeHelios)
		tc.mut(&cfg)
		err := cfg.Check()
		if err == nil || !strings.Contains(err.Error(), tc.field+" = ") {
			t.Errorf("%s out of range: Check = %v, want an error naming it", tc.field, err)
		}
	}
}
