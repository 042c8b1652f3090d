package fusion

import (
	"helios/internal/emu"
)

// PairConfig bounds which dynamic memory pairs the Oracle considers. The
// defaults mirror the paper: fusion within one cache-line-sized region
// (64 B), head at most 64 µ-ops away. Which accesses may pair at all is
// the rulebook's (Eligible, CheckCatalyst), not the config's.
type PairConfig struct {
	LineSize uint64
	MaxDist  int

	// ConsecutiveOnly restricts pairing to adjacent µ-ops (no catalyst).
	ConsecutiveOnly bool
}

// DefaultPairConfig returns the paper's bounds: a 64 B region and a head
// at most 64 µ-ops before its tail.
func DefaultPairConfig() PairConfig {
	return PairConfig{LineSize: 64, MaxDist: 64}
}

// Oracle performs perfect look-ahead pairing over the committed dynamic
// stream: every memory µ-op is matched with the closest older unpaired
// memory µ-op that forms an eligible pair. It implements the OracleFusion
// configuration and is also the analysis engine behind Figures 4 and 5.
type Oracle struct {
	cfg    PairConfig
	window []emu.Retired // the last cfg.MaxDist+1 records, oldest first
	paired map[uint64]bool
}

// NewOracle creates an oracle with the given eligibility rules.
func NewOracle(cfg PairConfig) *Oracle {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxDist <= 0 {
		cfg.MaxDist = 64
	}
	return &Oracle{cfg: cfg, paired: make(map[uint64]bool)}
}

// Observe consumes the next committed record in program order. If r (as a
// tail nucleus) forms an eligible pair with an older unpaired µ-op, the
// pairing is returned.
func (o *Oracle) Observe(r emu.Retired) (Pairing, bool) {
	// Maintain the sliding window.
	o.window = append(o.window, r)
	if len(o.window) > o.cfg.MaxDist+1 {
		evicted := o.window[0]
		o.window = o.window[1:]
		delete(o.paired, evicted.Seq)
	}
	if r.MemSize == 0 || o.paired[r.Seq] {
		return Pairing{}, false
	}

	tailIdx := len(o.window) - 1
	maxBack := o.cfg.MaxDist
	if o.cfg.ConsecutiveOnly {
		maxBack = 1
	}
	for back := 1; back <= maxBack && tailIdx-back >= 0; back++ {
		if p, ok := o.tryPair(tailIdx-back, tailIdx); ok {
			o.paired[p.HeadSeq] = true
			o.paired[p.TailSeq] = true
			return p, true
		}
	}
	return Pairing{}, false
}

// tryPair applies the rulebook to the window records at headIdx and
// tailIdx.
func (o *Oracle) tryPair(headIdx, tailIdx int) (Pairing, bool) {
	h, t := &o.window[headIdx], &o.window[tailIdx]
	if !Eligible(h.Inst, t.Inst) || o.paired[h.Seq] {
		return Pairing{}, false
	}
	p := Pair(h, t, o.cfg.LineSize)
	if !p.Category.Fuseable() {
		return Pairing{}, false
	}
	if _, unfuse := CheckCatalyst(o.window[headIdx : tailIdx+1]); unfuse {
		return Pairing{}, false
	}
	return p, true
}

// Reset clears the window (used on pipeline flushes when the oracle is
// re-primed from the restart point).
func (o *Oracle) Reset() {
	o.window = o.window[:0]
	o.paired = make(map[uint64]bool)
}
