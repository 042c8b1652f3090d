// Package ooo implements the cycle-level out-of-order core model: an
// Icelake-like seven-stage pipeline (Fetch, Decode, Allocation Queue,
// Rename, Dispatch, Issue/Execute, Commit) with a reorder buffer,
// unified scheduler, load/store queues with store-to-load forwarding,
// TSO store buffer, TAGE branch prediction, store-set memory dependence
// prediction, and the fusion machinery of the paper: decode-time
// consecutive fusion, the Helios UCH+FP predictive non-consecutive
// fusion, and OracleFusion.
//
// The model is execution-driven: the functional emulator (internal/emu)
// supplies the committed-path dynamic instruction stream with effective
// addresses and branch outcomes, as Spike does for the paper's in-house
// simulator. Branch mispredictions are modelled by stalling fetch until
// the branch resolves plus a redirect penalty; fusion mispredictions and
// memory-order violations flush the pipeline from the offending µ-op.
package ooo

import (
	"errors"
	"fmt"

	"helios/internal/cache"
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/obs"
)

// Config describes the simulated machine.
type Config struct {
	// Widths (µ-ops per cycle).
	FetchWidth    int
	DecodeWidth   int
	RenameWidth   int
	DispatchWidth int
	CommitWidth   int

	// Structure capacities.
	AQSize   int
	ROBSize  int
	IQSize   int
	LQSize   int
	SQSize   int
	PhysRegs int

	// Issue ports.
	ALUPorts   int // one also executes branches, one mul/div
	LoadPorts  int
	StorePorts int

	// Latencies (cycles).
	ALULatency      int
	MulLatency      int
	DivLatency      int
	RedirectPenalty int // fetch resume delay after a resolved mispredict

	// Store buffer drains per cycle (TSO, post-commit).
	StoreDrainPerCycle int

	// Front-end predictor geometry (zero values = the paper's design).
	TAGELogSize uint // log2 entries per tagged TAGE table
	BTBSets     int
	BTBWays     int
	RASSize     int

	// Store-set memory-dependence predictor geometry.
	StoreSetLogSize uint // log2 SSIT entries
	StoreSetLogSets uint // log2 LFST entries

	// Fusion configuration.
	Mode        fusion.Mode
	PairCfg     fusion.PairConfig
	MaxNCSFNest int // concurrent pending NCSF'd µ-ops (paper: 2)

	// Helios predictor tuning (zero values = the paper's design).
	FP             helios.FPConfig
	UCHLoadEntries int // load-side UCH capacity (paper: 6)

	// Memory hierarchy.
	Cache cache.Config

	// Stream bound: stop after this many committed µ-ops (0 = run to
	// stream end).
	MaxUops uint64

	// Chaos fault-injection hooks (zero = disabled; driven by
	// internal/chaos). ChaosFlushInterval forces a pipeline flush from a
	// randomly chosen live µ-op every that many cycles; ChaosSeed makes
	// the choice deterministic.
	ChaosFlushInterval uint64
	ChaosSeed          int64

	// Obs attaches the observability layer (nil = disabled; the hook
	// sites reduce to a nil check on this concrete pointer). Excluded
	// from JSON: run manifests serialize Config, and an observer is a
	// per-run wiring detail, not machine configuration.
	Obs *obs.Observer `json:"-"`
}

// DefaultConfig returns the Table II machine: 8-wide fetch/decode feeding
// a 140-entry allocation queue, 5-wide rename/dispatch, 8-wide commit,
// 352-entry ROB, 160-entry scheduler, 128/72-entry LQ/SQ, 280 physical
// registers, 4+2+2 issue ports and a 15-cycle redirect penalty.
func DefaultConfig(mode fusion.Mode) Config {
	return Config{
		FetchWidth:    8,
		DecodeWidth:   8,
		RenameWidth:   5,
		DispatchWidth: 5,
		CommitWidth:   8,

		AQSize:   140,
		ROBSize:  352,
		IQSize:   160,
		LQSize:   128,
		SQSize:   72,
		PhysRegs: 384, // ROB + architectural state: rename is backed by the ROB

		ALUPorts:   4,
		LoadPorts:  2,
		StorePorts: 2,

		ALULatency:      1,
		MulLatency:      3,
		DivLatency:      20,
		RedirectPenalty: 15,

		StoreDrainPerCycle: 1, // one store retires to L1D per cycle

		TAGELogSize: 11,
		BTBSets:     1024,
		BTBWays:     4,
		RASSize:     64,

		StoreSetLogSize: 12,
		StoreSetLogSets: 7,

		Mode:        mode,
		PairCfg:     fusion.DefaultPairConfig(),
		MaxNCSFNest: 2,

		Cache: cache.DefaultConfig(),
	}
}

// Bounds of Check. The caps bound what New allocates (every table at
// most maxEntries entries, every log2-sized table at most 2^maxLogSize)
// and what the event wheel grows to cover (every latency at most
// maxLatency cycles, far below the watchdog's 100,000-cycle bound).
const (
	maxEntries = 1 << 20
	maxLogSize = 20
	maxLatency = 10_000

	// The architectural registers back the initial RAT, and a fused µ-op
	// renames two destinations at once.
	minPhysRegs = 32 + 2
)

// Check reports every field the model cannot run with, judged as New
// sees the config: after zero fields are filled with the defaults, so a
// sparse config passes. The lower bounds are what the model needs to
// make progress; the caps keep one config from asking for gigabytes.
// heliosd applies it to every custom machine before simulating.
func (c Config) Check() error {
	c.fill()
	errs := []error{
		inRange("Mode", c.Mode, fusion.ModeNoFusion, fusion.ModeOracle),
		inRange("FetchWidth", c.FetchWidth, 1, maxEntries),
		inRange("DecodeWidth", c.DecodeWidth, 1, maxEntries),
		inRange("RenameWidth", c.RenameWidth, 1, maxEntries),
		inRange("DispatchWidth", c.DispatchWidth, 1, maxEntries),
		inRange("CommitWidth", c.CommitWidth, 1, maxEntries),
		inRange("AQSize", c.AQSize, 1, maxEntries),
		inRange("ROBSize", c.ROBSize, 1, maxEntries),
		inRange("IQSize", c.IQSize, 1, maxEntries),
		inRange("LQSize", c.LQSize, 1, maxEntries),
		inRange("SQSize", c.SQSize, 1, maxEntries),
		inRange("PhysRegs", c.PhysRegs, minPhysRegs, maxEntries),
		inRange("ALUPorts", c.ALUPorts, 1, maxEntries),
		inRange("LoadPorts", c.LoadPorts, 1, maxEntries),
		inRange("StorePorts", c.StorePorts, 1, maxEntries),
		inRange("ALULatency", c.ALULatency, 1, maxLatency),
		inRange("MulLatency", c.MulLatency, 1, maxLatency),
		inRange("DivLatency", c.DivLatency, 1, maxLatency),
		inRange("RedirectPenalty", c.RedirectPenalty, 1, maxLatency),
		inRange("StoreDrainPerCycle", c.StoreDrainPerCycle, 1, maxEntries),
		inRange("TAGELogSize", c.TAGELogSize, 1, maxLogSize),
		inRange("BTBSets", c.BTBSets, 1, maxEntries),
		inRange("BTBWays", c.BTBWays, 1, maxEntries),
		inRange("BTBSets×BTBWays", c.BTBSets*c.BTBWays, 1, maxEntries),
		inRange("RASSize", c.RASSize, 1, maxEntries),
		inRange("StoreSetLogSize", c.StoreSetLogSize, 1, maxLogSize),
		inRange("StoreSetLogSets", c.StoreSetLogSets, 1, maxLogSize),
		inRange("PairCfg.LineSize", c.PairCfg.LineSize, 1, maxEntries),
		inRange("PairCfg.MaxDist", c.PairCfg.MaxDist, 1, maxEntries),
		inRange("MaxNCSFNest", c.MaxNCSFNest, 1, maxEntries),
		inRange("UCHLoadEntries", c.UCHLoadEntries, 0, maxEntries), // 0 = the paper's 6
		inRange("Cache.LineSize", c.Cache.LineSize, 1, maxEntries),
		inRange("Cache.MemLatency", c.Cache.MemLatency, 1, maxLatency),
	}
	for _, l := range []struct {
		name string
		cfg  cache.LevelConfig
	}{{"Cache.L1I", c.Cache.L1I}, {"Cache.L1D", c.Cache.L1D}, {"Cache.L2", c.Cache.L2}, {"Cache.LLC", c.Cache.LLC}} {
		errs = append(errs,
			inRange(l.name+".Sets", l.cfg.Sets, 1, maxEntries),
			inRange(l.name+".Ways", l.cfg.Ways, 1, maxEntries),
			inRange(l.name+".Sets×Ways", l.cfg.Sets*l.cfg.Ways, 1, maxEntries),
			inRange(l.name+".LineSize", l.cfg.LineSize, 1, maxEntries),
			inRange(l.name+".Latency", l.cfg.Latency, 1, maxLatency))
	}
	return errors.Join(errs...)
}

// inRange reports field = v unless lo ≤ v ≤ hi. A product of two
// out-of-range fields may wrap, but each factor is reported itself.
func inRange[T ~int | ~uint | ~uint64](field string, v, lo, hi T) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s = %d outside [%d, %d]", field, v, lo, hi)
	}
	return nil
}

// fill sets zero fields to the defaults so tests can use sparse configs.
// The pair and cache configs are filled whole, keyed on their line size.
func (c *Config) fill() {
	def := DefaultConfig(c.Mode)
	orDefault(&c.FetchWidth, def.FetchWidth)
	orDefault(&c.DecodeWidth, def.DecodeWidth)
	orDefault(&c.RenameWidth, def.RenameWidth)
	orDefault(&c.DispatchWidth, def.DispatchWidth)
	orDefault(&c.CommitWidth, def.CommitWidth)
	orDefault(&c.AQSize, def.AQSize)
	orDefault(&c.ROBSize, def.ROBSize)
	orDefault(&c.IQSize, def.IQSize)
	orDefault(&c.LQSize, def.LQSize)
	orDefault(&c.SQSize, def.SQSize)
	orDefault(&c.PhysRegs, def.PhysRegs)
	orDefault(&c.ALUPorts, def.ALUPorts)
	orDefault(&c.LoadPorts, def.LoadPorts)
	orDefault(&c.StorePorts, def.StorePorts)
	orDefault(&c.ALULatency, def.ALULatency)
	orDefault(&c.MulLatency, def.MulLatency)
	orDefault(&c.DivLatency, def.DivLatency)
	orDefault(&c.RedirectPenalty, def.RedirectPenalty)
	orDefault(&c.StoreDrainPerCycle, def.StoreDrainPerCycle)
	orDefault(&c.MaxNCSFNest, def.MaxNCSFNest)
	orDefault(&c.TAGELogSize, def.TAGELogSize)
	orDefault(&c.BTBSets, def.BTBSets)
	orDefault(&c.BTBWays, def.BTBWays)
	orDefault(&c.RASSize, def.RASSize)
	orDefault(&c.StoreSetLogSize, def.StoreSetLogSize)
	orDefault(&c.StoreSetLogSets, def.StoreSetLogSets)
	if c.PairCfg.LineSize == 0 {
		c.PairCfg = def.PairCfg
	}
	if c.Cache.LineSize == 0 {
		c.Cache = def.Cache
	}
}

// orDefault sets *v to def when *v is zero.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}
