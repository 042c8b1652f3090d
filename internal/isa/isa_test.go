package isa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGoldenEncodings(t *testing.T) {
	// Golden values cross-checked against the RISC-V spec encodings.
	cases := []struct {
		inst Inst
		want uint32
	}{
		{Inst{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 3}, 0x00310093},
		{Inst{Op: OpLD, Rd: 5, Rs1: 6, Imm: 8}, 0x00833283},
		{Inst{Op: OpSD, Rs1: 8, Rs2: 7, Imm: 16}, 0x00743823},
		{Inst{Op: OpJAL, Rd: 1, Imm: 8}, 0x008000ef},
		{Inst{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -4}, 0xfe208ee3},
		{Inst{Op: OpLUI, Rd: 10, Imm: 0x12345000}, 0x12345537},
		{Inst{Op: OpADD, Rd: 3, Rs1: 4, Rs2: 5}, 0x005201b3},
		{Inst{Op: OpSUB, Rd: 3, Rs1: 4, Rs2: 5}, 0x405201b3},
		{Inst{Op: OpMUL, Rd: 3, Rs1: 4, Rs2: 5}, 0x025201b3},
		{Inst{Op: OpSRAI, Rd: 1, Rs1: 1, Imm: 32}, 0x4200d093},
		{Inst{Op: OpECALL}, 0x00000073},
		{Inst{Op: OpEBREAK}, 0x00100073},
	}
	for _, c := range cases {
		got, err := Encode(c.inst)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.inst, err)
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.inst, got, c.want)
		}
		back := Decode(c.want)
		if back != c.inst {
			t.Errorf("Decode(%#08x) = %+v, want %+v", c.want, back, c.inst)
		}
	}
}

// randInst generates a random valid instruction for the given opcode.
func randInst(op Opcode, r *rand.Rand) Inst {
	i := Inst{Op: op}
	if op.HasRd() {
		i.Rd = Reg(r.Intn(32))
	}
	if op.HasRs1() {
		i.Rs1 = Reg(r.Intn(32))
	}
	if op.HasRs2() {
		i.Rs2 = Reg(r.Intn(32))
	}
	switch op {
	case OpSLLI, OpSRLI, OpSRAI:
		i.Imm = int64(r.Intn(64))
	case OpSLLIW, OpSRLIW, OpSRAIW:
		i.Imm = int64(r.Intn(32))
	case OpLUI, OpAUIPC:
		i.Imm = int64(int32(r.Uint32() & 0xfffff000))
	case OpJAL:
		i.Imm = int64(r.Intn(1<<20)-1<<19) &^ 1
	case OpECALL, OpEBREAK, OpFENCE:
		// no immediate
	default:
		switch op.Format() {
		case FormatI, FormatS:
			i.Imm = int64(r.Intn(1<<12) - 1<<11)
		case FormatB:
			i.Imm = int64(r.Intn(1<<12)-1<<11) &^ 1
		}
	}
	return i
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for op := Opcode(1); op < numOpcodes; op++ {
		if op == OpInvalid {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			in := randInst(op, r)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("Encode(%v): %v", in, err)
			}
			out := Decode(w)
			if out != in {
				t.Fatalf("round trip %v: encoded %#08x decoded to %v", in, w, out)
			}
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(w uint32) bool {
		i := Decode(w)
		// A decoded instruction must be either invalid or re-encodable.
		if i.Op == OpInvalid {
			return true
		}
		_, err := Encode(i)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbageIsInvalid(t *testing.T) {
	for _, w := range []uint32{0, 0xffffffff, 0x7f, 0x00000001} {
		if got := Decode(w); got.Op != OpInvalid {
			t.Errorf("Decode(%#08x) = %v, want invalid", w, got)
		}
	}
}

// TestInstString holds String to the fmt reference below for every
// opcode, across register corners (x0, x31, an out-of-range register)
// and immediates up to the int64 extremes.
func TestInstString(t *testing.T) {
	ref := func(i Inst) string {
		switch i.Op {
		case OpInvalid:
			return "invalid"
		case OpLUI, OpAUIPC:
			return fmt.Sprintf("%s %s, 0x%x", i.Op, i.Rd, uint32(i.Imm)>>12)
		case OpJAL:
			return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
		case OpJALR, OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU:
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
		case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
		case OpSB, OpSH, OpSW, OpSD:
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
		case OpFENCE, OpECALL, OpEBREAK:
			return i.Op.String()
		}
		switch i.Op.Format() {
		case FormatI:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
		case FormatR:
			return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
		}
		return i.Op.String()
	}
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		for _, regs := range [][3]Reg{{Zero, Zero, Zero}, {A0, SP, T6}, {T6, 40, RA}} {
			for _, imm := range []int64{0, -1, 2047, -2048, 0x7ffff000, -1 << 63, 1<<63 - 1} {
				i := Inst{Op: op, Rd: regs[0], Rs1: regs[1], Rs2: regs[2], Imm: imm}
				if got, want := i.String(), ref(i); got != want {
					t.Errorf("%+v: String() = %q, want %q", i, got, want)
				}
			}
		}
	}
}

func TestRegNames(t *testing.T) {
	cases := []struct {
		name string
		reg  Reg
	}{
		{"zero", Zero}, {"ra", RA}, {"sp", SP}, {"a0", A0}, {"t6", T6},
		{"x0", Zero}, {"x10", A0}, {"x31", T6}, {"fp", S0}, {"s0", S0},
	}
	for _, c := range cases {
		got, ok := RegByName(c.name)
		if !ok || got != c.reg {
			t.Errorf("RegByName(%q) = %v, %v; want %v, true", c.name, got, ok, c.reg)
		}
	}
	for _, bad := range []string{"x32", "q0", "", "x", "a99"} {
		if _, ok := RegByName(bad); ok {
			t.Errorf("RegByName(%q) succeeded, want failure", bad)
		}
	}
}

func TestOpcodeMetadata(t *testing.T) {
	if !OpLD.IsLoad() || OpLD.MemSize() != 8 {
		t.Error("ld metadata wrong")
	}
	if !OpSB.IsStore() || OpSB.MemSize() != 1 {
		t.Error("sb metadata wrong")
	}
	if !OpLBU.UnsignedLoad() || OpLB.UnsignedLoad() {
		t.Error("load signedness metadata wrong")
	}
	if !OpBEQ.IsBranch() || OpJAL.IsBranch() {
		t.Error("branch classification wrong")
	}
	if !OpJAL.IsControlFlow() || !OpJALR.IsControlFlow() || OpADD.IsControlFlow() {
		t.Error("control flow classification wrong")
	}
	if !OpFENCE.IsSerializing() || !OpECALL.IsSerializing() || OpADD.IsSerializing() {
		t.Error("serializing classification wrong")
	}
	if OpMUL.Class() != ClassMul || OpDIV.Class() != ClassDiv {
		t.Error("mul/div class wrong")
	}
	// Every named opcode resolves back through OpcodeByName.
	for op := Opcode(1); op < numOpcodes; op++ {
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

func TestBranchTarget(t *testing.T) {
	i := Inst{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}
	if tgt, ok := i.BranchTarget(0x100); !ok || tgt != 0xf8 {
		t.Errorf("BranchTarget = %#x, %v", tgt, ok)
	}
	j := Inst{Op: OpJALR, Rd: 0, Rs1: 1}
	if _, ok := j.BranchTarget(0x100); ok {
		t.Error("jalr should not have a static target")
	}
}

func TestReadsWritesReg(t *testing.T) {
	i := Inst{Op: OpADD, Rd: 3, Rs1: 4, Rs2: 5}
	if !i.WritesReg(3) || i.WritesReg(4) {
		t.Error("WritesReg wrong")
	}
	if !i.ReadsReg(4) || !i.ReadsReg(5) || i.ReadsReg(3) {
		t.Error("ReadsReg wrong")
	}
	z := Inst{Op: OpADD, Rd: 0, Rs1: 0, Rs2: 0}
	if z.WritesReg(0) || z.ReadsReg(0) {
		t.Error("x0 must never count as read or written")
	}
}
