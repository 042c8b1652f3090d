package isa

import "strconv"

// Inst is one decoded RV64IM instruction.
//
// Imm holds the sign-extended immediate for I/S/B/U/J formats (for U
// formats it is the already-shifted 32-bit value, i.e. imm<<12). For shift
// immediates it holds the 6-bit shift amount.
type Inst struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// Valid reports whether the instruction holds a defined opcode.
func (i Inst) Valid() bool { return i.Op != OpInvalid && int(i.Op) < NumOpcodes }

// String renders the instruction in assembly syntax. It allocates only
// the returned string. It appends with strconv, not fmt: the race
// detector drops fmt's pooled printers at random, so the obs-on
// allocation pin, which renders each PC once, would vary under -race.
func (i Inst) String() string {
	var buf [48]byte
	b := append(buf[:0], i.Op.String()...)
	reg := func(sep string, r Reg) { b = append(append(b, sep...), r.String()...) }
	imm := func(sep string) { b = strconv.AppendInt(append(b, sep...), i.Imm, 10) }
	switch i.Op {
	case OpInvalid:
		return "invalid"
	case OpLUI, OpAUIPC:
		reg(" ", i.Rd)
		b = strconv.AppendUint(append(b, ", 0x"...), uint64(uint32(i.Imm)>>12), 16)
	case OpJAL:
		reg(" ", i.Rd)
		imm(", ")
	case OpJALR, OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU:
		reg(" ", i.Rd)
		imm(", ")
		reg("(", i.Rs1)
		b = append(b, ')')
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		reg(" ", i.Rs1)
		reg(", ", i.Rs2)
		imm(", ")
	case OpSB, OpSH, OpSW, OpSD:
		reg(" ", i.Rs2)
		imm(", ")
		reg("(", i.Rs1)
		b = append(b, ')')
	case OpFENCE, OpECALL, OpEBREAK:
	default:
		switch i.Op.Format() {
		case FormatI:
			reg(" ", i.Rd)
			reg(", ", i.Rs1)
			imm(", ")
		case FormatR:
			reg(" ", i.Rd)
			reg(", ", i.Rs1)
			reg(", ", i.Rs2)
		}
	}
	return string(b)
}

// BranchTarget returns the control-flow target of a branch or jal
// instruction located at pc. For jalr the target depends on a register
// value and cannot be computed statically; ok is false in that case.
func (i Inst) BranchTarget(pc uint64) (target uint64, ok bool) {
	switch i.Op {
	case OpJAL:
		return pc + uint64(i.Imm), true
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return pc + uint64(i.Imm), true
	}
	return 0, false
}

// WritesReg reports whether the instruction writes architectural register r
// (never true for x0, which is hardwired to zero).
func (i Inst) WritesReg(r Reg) bool {
	return i.Op.HasRd() && i.Rd == r && r != Zero
}

// ReadsReg reports whether the instruction reads architectural register r.
func (i Inst) ReadsReg(r Reg) bool {
	if r == Zero {
		return false
	}
	return (i.Op.HasRs1() && i.Rs1 == r) || (i.Op.HasRs2() && i.Rs2 == r)
}
