// Package uop defines the micro-op level vocabulary shared by the fusion
// engine (internal/fusion), the Helios predictor (internal/helios) and the
// out-of-order pipeline (internal/ooo): fusion kinds, the paper's address
// relationship taxonomy for memory pairs (Figure 4), and architectural
// register extraction helpers.
//
// In this model every RISC-V instruction translates to exactly one µ-op
// (as in the paper), so a µ-op is identified by its dynamic sequence
// number and carries its architectural instruction.
package uop

import "helios/internal/isa"

// FuseKind says what kind of fused µ-op a head nucleus has become.
type FuseKind uint8

// Fusion kinds.
const (
	FuseNone      FuseKind = iota
	FuseIdiom              // non-memory idiom from Table I (e.g. slli+add)
	FuseLoadPair           // two loads fused into a load pair µ-op
	FuseStorePair          // two stores fused into a store pair µ-op
)

func (k FuseKind) String() string {
	switch k {
	case FuseNone:
		return "none"
	case FuseIdiom:
		return "idiom"
	case FuseLoadPair:
		return "ldp"
	case FuseStorePair:
		return "stp"
	}
	return "?"
}

// IsMemory reports whether the fusion kind pairs memory µ-ops.
func (k FuseKind) IsMemory() bool { return k == FuseLoadPair || k == FuseStorePair }

// AddrCategory classifies the address relationship of a fused memory pair,
// matching the categories of Figure 4 in the paper.
type AddrCategory uint8

// Address categories, mutually exclusive. Classification order is
// Overlapping > Contiguous > SameLine > NextLine.
const (
	AddrNone        AddrCategory = iota
	AddrOverlapping              // byte ranges intersect
	AddrContiguous               // ranges exactly adjacent, no gap
	AddrSameLine                 // same cache line, gap between ranges
	AddrNextLine                 // within one line-size region spanning two lines
	AddrTooFar                   // more than a line-size region apart: not fuseable
)

func (c AddrCategory) String() string {
	switch c {
	case AddrOverlapping:
		return "overlapping"
	case AddrContiguous:
		return "contiguous"
	case AddrSameLine:
		return "sameline"
	case AddrNextLine:
		return "nextline"
	case AddrTooFar:
		return "toofar"
	}
	return "none"
}

// Fuseable reports whether the category permits microarchitectural fusion
// (the data fits within a cache-access-granularity region).
func (c AddrCategory) Fuseable() bool {
	return c == AddrOverlapping || c == AddrContiguous || c == AddrSameLine || c == AddrNextLine
}

// Classify determines the address category of two accesses
// [ea1, ea1+sz1) and [ea2, ea2+sz2) for the given cache line size.
func Classify(ea1 uint64, sz1 uint8, ea2 uint64, sz2 uint8, lineSize uint64) AddrCategory {
	if sz1 == 0 || sz2 == 0 {
		return AddrNone
	}
	end1 := ea1 + uint64(sz1)
	end2 := ea2 + uint64(sz2)
	lo, hi := ea1, end1
	if ea2 < lo {
		lo = ea2
	}
	if end2 > hi {
		hi = end2
	}
	span := hi - lo
	if span > lineSize {
		return AddrTooFar
	}
	switch {
	case ea1 < end2 && ea2 < end1:
		return AddrOverlapping
	case end1 == ea2 || end2 == ea1:
		return AddrContiguous
	case lo/lineSize == (hi-1)/lineSize:
		return AddrSameLine
	default:
		return AddrNextLine
	}
}

// CrossesLine reports whether the combined access [lo, lo+span) crosses a
// cache line boundary, requiring two serialized cache accesses.
func CrossesLine(lo, span, lineSize uint64) bool {
	if span == 0 {
		return false
	}
	return lo/lineSize != (lo+span-1)/lineSize
}

// CombinedRange returns the lowest byte address and byte span covered by
// the two accesses.
func CombinedRange(ea1 uint64, sz1 uint8, ea2 uint64, sz2 uint8) (lo, span uint64) {
	end1 := ea1 + uint64(sz1)
	end2 := ea2 + uint64(sz2)
	lo, hi := ea1, end1
	if ea2 < lo {
		lo = ea2
	}
	if end2 > hi {
		hi = end2
	}
	return lo, hi - lo
}

// Dest returns the architectural destination register, if the instruction
// writes one (writes to x0 do not count).
func Dest(i isa.Inst) (isa.Reg, bool) {
	if i.Op.HasRd() && i.Rd != isa.Zero {
		return i.Rd, true
	}
	return 0, false
}
