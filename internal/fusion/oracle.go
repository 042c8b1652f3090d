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
// It holds no records, only a paired bit per seq and the floor Reset
// sets: each Observe reads the caller's copy of the stream.
type Oracle struct {
	cfg    PairConfig
	paired []bool // ring indexed by seq % (MaxDist+1): a head is ≤ MaxDist back
	floor  uint64 // no head older than this (Reset)
}

// NewOracle creates an oracle with the given eligibility rules.
func NewOracle(cfg PairConfig) *Oracle {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxDist <= 0 {
		cfg.MaxDist = 64
	}
	return &Oracle{cfg: cfg, paired: make([]bool, cfg.MaxDist+1)}
}

// Observe consumes the next committed record in program order, the last
// of recs (the stream up to it, oldest first; every seq once, in order,
// from a Reset's start). If it (as a tail nucleus) forms an eligible
// pair with an older unpaired µ-op, the pairing is returned.
func (o *Oracle) Observe(recs []emu.Retired) (Pairing, bool) {
	tailIdx := len(recs) - 1
	t := &recs[tailIdx]
	// The tail's slot held the seq MaxDist+1 back, now out of reach.
	o.paired[o.slot(t.Seq)] = false
	if t.MemSize == 0 {
		return Pairing{}, false
	}
	maxBack := o.cfg.MaxDist
	if o.cfg.ConsecutiveOnly {
		maxBack = 1
	}
	for back := 1; back <= maxBack && tailIdx-back >= 0 && recs[tailIdx-back].Seq >= o.floor; back++ {
		if p, ok := o.tryPair(recs[tailIdx-back:]); ok {
			o.paired[o.slot(p.HeadSeq)] = true
			o.paired[o.slot(p.TailSeq)] = true
			return p, true
		}
	}
	return Pairing{}, false
}

// slot returns seq's index in the paired ring.
func (o *Oracle) slot(seq uint64) int { return int(seq % uint64(len(o.paired))) }

// tryPair applies the rulebook to span's first record as the head and
// its last as the tail.
func (o *Oracle) tryPair(span []emu.Retired) (Pairing, bool) {
	h, t := &span[0], &span[len(span)-1]
	if !Eligible(h.Inst, t.Inst) || o.paired[o.slot(h.Seq)] {
		return Pairing{}, false
	}
	p := Pair(h, t, o.cfg.LineSize)
	if !p.Category.Fuseable() {
		return Pairing{}, false
	}
	if _, unfuse := CheckCatalyst(span); unfuse {
		return Pairing{}, false
	}
	return p, true
}

// Reset restarts pairing at seq start, leaving older heads out of reach
// (used on pipeline flushes, when the oracle is re-primed from start).
func (o *Oracle) Reset(start uint64) { o.floor = start }
