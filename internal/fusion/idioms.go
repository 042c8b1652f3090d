// Package fusion implements the paper's fusion machinery that does not
// need the Helios predictor: the RISC-V macro-op fusion idiom catalogue of
// Celio et al. (Table I), the memory-pair rulebook of Section IV-B
// (pair.go: eligibility, the catalyst check with its typed unfuse
// reasons, and the pair's attributes), static detection of consecutive
// memory pairs, and the OracleFusion upper-bound pairing used in the
// evaluation. The pipeline's decode, AQ and rename stages decide memory
// pairs through the same rulebook as the Oracle.
package fusion

import (
	"helios/internal/isa"
	"helios/internal/uop"
)

// Idiom identifies one entry of the fusion idiom catalogue (Table I).
// Memory pairing idioms (load pair / store pair) are the ones in bold in
// the paper's table; the rest are the non-memory idioms.
type Idiom uint8

// Fusion idioms.
const (
	IdiomNone        Idiom = iota
	IdiomLEA               // slli rd,rs,{1,2,3} + add rd,rd,rs2 (load effective address)
	IdiomClearUpper        // slli rd,rs,32 + srli rd,rd,32 (zero-extend word)
	IdiomLoadImm           // lui rd,imm + addi/addiw rd,rd,imm (32-bit constant)
	IdiomAuipcAddi         // auipc rd,imm + addi rd,rd,imm (pc-relative address)
	IdiomLoadGlobal        // lui/auipc rd,imm + load rd,imm(rd) (global access)
	IdiomIndexedLoad       // add rd,rs1,rs2 + load rd,imm(rd) (indirect addressing)
	IdiomLoadPair          // load + load, same base, contiguous (bold)
	IdiomStorePair         // store + store, same base, contiguous (bold)
)

func (i Idiom) String() string {
	switch i {
	case IdiomLEA:
		return "lea"
	case IdiomClearUpper:
		return "clear-upper"
	case IdiomLoadImm:
		return "load-imm"
	case IdiomAuipcAddi:
		return "auipc-addi"
	case IdiomLoadGlobal:
		return "load-global"
	case IdiomIndexedLoad:
		return "indexed-load"
	case IdiomLoadPair:
		return "load-pair"
	case IdiomStorePair:
		return "store-pair"
	}
	return "none"
}

// Kind maps the idiom to the µ-op fusion kind.
func (i Idiom) Kind() uop.FuseKind {
	switch i {
	case IdiomNone:
		return uop.FuseNone
	case IdiomLoadPair:
		return uop.FuseLoadPair
	case IdiomStorePair:
		return uop.FuseStorePair
	default:
		return uop.FuseIdiom
	}
}

// MatchNonMemIdiom recognises the non-memory idioms of Table I for two
// consecutive instructions a (older) and b (younger). The pattern
// constraints follow Celio et al.: the intermediate destination must be
// consumed and overwritten by b, so the pair collapses into one µ-op with
// no extra live register.
func MatchNonMemIdiom(a, b isa.Inst) Idiom {
	if !a.Op.HasRd() || a.Rd == isa.Zero {
		return IdiomNone
	}
	rd := a.Rd
	switch a.Op {
	case isa.OpSLLI:
		if a.Imm >= 1 && a.Imm <= 3 &&
			b.Op == isa.OpADD && b.Rd == rd && (b.Rs1 == rd || b.Rs2 == rd) &&
			!(b.Rs1 == rd && b.Rs2 == rd) {
			return IdiomLEA
		}
		if a.Imm == 32 && b.Op == isa.OpSRLI && b.Imm == 32 && b.Rd == rd && b.Rs1 == rd {
			return IdiomClearUpper
		}
	case isa.OpLUI:
		if (b.Op == isa.OpADDI || b.Op == isa.OpADDIW) && b.Rd == rd && b.Rs1 == rd {
			return IdiomLoadImm
		}
		if b.Op.IsLoad() && b.Rd == rd && b.Rs1 == rd {
			return IdiomLoadGlobal
		}
	case isa.OpAUIPC:
		if b.Op == isa.OpADDI && b.Rd == rd && b.Rs1 == rd {
			return IdiomAuipcAddi
		}
		if b.Op.IsLoad() && b.Rd == rd && b.Rs1 == rd {
			return IdiomLoadGlobal
		}
	case isa.OpADD:
		if b.Op.IsLoad() && b.Rd == rd && b.Rs1 == rd {
			return IdiomIndexedLoad
		}
	}
	return IdiomNone
}

// MatchMemPair recognises a consecutive memory pairing idiom: an
// Eligible pair through one base register whose immediates make the
// accesses exactly contiguous. The sizes may differ.
//
// A load pair is rejected when the second load depends on the first
// (dependent loads, Section II-B) or when both write the same register.
func MatchMemPair(a, b isa.Inst) (Idiom, bool) {
	if !Eligible(a, b) || a.Rs1 != b.Rs1 {
		return IdiomNone, false
	}
	// Dependent loads cannot fuse: the first load produces the base of
	// the second, or rewrites its own base used by the second.
	if a.Op.IsLoad() && (b.Rs1 == a.Rd || a.Rd == b.Rd) {
		return IdiomNone, false
	}
	sa, sb := int64(a.Op.MemSize()), int64(b.Op.MemSize())
	if a.Imm+sa != b.Imm && b.Imm+sb != a.Imm {
		return IdiomNone, false
	}
	if a.Op.IsLoad() {
		return IdiomLoadPair, true
	}
	return IdiomStorePair, true
}
