package emu

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"helios/internal/asm"
	"helios/internal/isa"
)

// Linux-compatible syscall numbers recognised by the ECALL handler.
const (
	SysWrite = 64
	SysExit  = 93
)

// Retired describes one architecturally committed instruction: everything
// the timing model needs to know about it.
type Retired struct {
	Seq     uint64 // dynamic instruction number, starting at 0
	PC      uint64
	NextPC  uint64 // architectural successor (branch outcome applied)
	Inst    isa.Inst
	EA      uint64 // effective address for loads/stores
	MemSize uint8  // bytes accessed (0 for non-memory)
	Taken   bool   // conditional branch outcome
}

// IsLoad reports whether the retired instruction is a load.
func (r Retired) IsLoad() bool { return r.Inst.Op.IsLoad() }

// IsStore reports whether the retired instruction is a store.
func (r Retired) IsStore() bool { return r.Inst.Op.IsStore() }

// Machine is the architectural state of the emulator.
type Machine struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *Memory

	// Decoded text for fast fetch.
	textBase uint64
	text     []isa.Inst

	seq      uint64
	halted   bool
	exitCode int
	output   bytes.Buffer
}

// New creates a machine loaded with the given program: text and data are
// copied into memory, the stack pointer is initialised, and PC is set to
// the entry point.
func New(p *asm.Program) *Machine {
	m := &Machine{Mem: NewMemory(), textBase: p.TextBase, PC: p.Entry}
	m.text = make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		m.text[i] = isa.Decode(w)
		m.Mem.Write(p.TextBase+uint64(4*i), 4, uint64(w))
	}
	m.Mem.StoreBytes(p.DataBase, p.Data)
	m.Regs[isa.SP] = asm.StackTop
	return m
}

// Halted reports whether the program has exited.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the program's exit status (valid after Halted).
func (m *Machine) ExitCode() int { return m.exitCode }

// Output returns everything the program wrote via the write syscall.
func (m *Machine) Output() string { return m.output.String() }

// InstretCount returns the number of retired instructions so far.
func (m *Machine) InstretCount() uint64 { return m.seq }

// fetch returns the instruction at pc.
func (m *Machine) fetch(pc uint64) (isa.Inst, error) {
	idx := (pc - m.textBase) / 4
	if pc >= m.textBase && idx < uint64(len(m.text)) && pc%4 == 0 {
		return m.text[idx], nil
	}
	w := uint32(m.Mem.Read(pc, 4))
	i := isa.Decode(w)
	if !i.Valid() {
		return i, fmt.Errorf("emu: invalid instruction %#08x at pc %#x", w, pc)
	}
	return i, nil
}

// Step executes one instruction and returns its retirement record.
func (m *Machine) Step() (Retired, error) {
	if m.halted {
		return Retired{}, fmt.Errorf("emu: machine is halted")
	}
	pc := m.PC
	inst, err := m.fetch(pc)
	if err != nil {
		return Retired{}, err
	}
	r := Retired{Seq: m.seq, PC: pc, Inst: inst, NextPC: pc + 4}

	reg := func(i isa.Reg) uint64 { return m.Regs[i] }
	setReg := func(i isa.Reg, v uint64) {
		if i != isa.Zero {
			m.Regs[i] = v
		}
	}
	rs1 := reg(inst.Rs1)
	rs2 := reg(inst.Rs2)
	imm := inst.Imm

	switch inst.Op {
	case isa.OpLUI:
		setReg(inst.Rd, uint64(imm))
	case isa.OpAUIPC:
		setReg(inst.Rd, pc+uint64(imm))
	case isa.OpJAL:
		setReg(inst.Rd, pc+4)
		r.NextPC = pc + uint64(imm)
	case isa.OpJALR:
		t := (rs1 + uint64(imm)) &^ 1
		setReg(inst.Rd, pc+4)
		r.NextPC = t
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		taken := false
		switch inst.Op {
		case isa.OpBEQ:
			taken = rs1 == rs2
		case isa.OpBNE:
			taken = rs1 != rs2
		case isa.OpBLT:
			taken = int64(rs1) < int64(rs2)
		case isa.OpBGE:
			taken = int64(rs1) >= int64(rs2)
		case isa.OpBLTU:
			taken = rs1 < rs2
		case isa.OpBGEU:
			taken = rs1 >= rs2
		}
		r.Taken = taken
		if taken {
			r.NextPC = pc + uint64(imm)
		}
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU:
		addr := rs1 + uint64(imm)
		size := inst.Op.MemSize()
		v := m.Mem.Read(addr, size)
		if !inst.Op.UnsignedLoad() {
			shift := 64 - 8*uint(size)
			v = uint64(int64(v<<shift) >> shift)
		}
		setReg(inst.Rd, v)
		r.EA, r.MemSize = addr, size
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		addr := rs1 + uint64(imm)
		size := inst.Op.MemSize()
		m.Mem.Write(addr, size, rs2)
		r.EA, r.MemSize = addr, size
	case isa.OpADDI:
		setReg(inst.Rd, rs1+uint64(imm))
	case isa.OpSLTI:
		setReg(inst.Rd, b2u(int64(rs1) < imm))
	case isa.OpSLTIU:
		setReg(inst.Rd, b2u(rs1 < uint64(imm)))
	case isa.OpXORI:
		setReg(inst.Rd, rs1^uint64(imm))
	case isa.OpORI:
		setReg(inst.Rd, rs1|uint64(imm))
	case isa.OpANDI:
		setReg(inst.Rd, rs1&uint64(imm))
	case isa.OpSLLI:
		setReg(inst.Rd, rs1<<uint(imm))
	case isa.OpSRLI:
		setReg(inst.Rd, rs1>>uint(imm))
	case isa.OpSRAI:
		setReg(inst.Rd, uint64(int64(rs1)>>uint(imm)))
	case isa.OpADDIW:
		setReg(inst.Rd, sext32(uint32(rs1)+uint32(imm)))
	case isa.OpSLLIW:
		setReg(inst.Rd, sext32(uint32(rs1)<<uint(imm)))
	case isa.OpSRLIW:
		setReg(inst.Rd, sext32(uint32(rs1)>>uint(imm)))
	case isa.OpSRAIW:
		setReg(inst.Rd, uint64(int64(int32(rs1)>>uint(imm))))
	case isa.OpADD:
		setReg(inst.Rd, rs1+rs2)
	case isa.OpSUB:
		setReg(inst.Rd, rs1-rs2)
	case isa.OpSLL:
		setReg(inst.Rd, rs1<<(rs2&63))
	case isa.OpSLT:
		setReg(inst.Rd, b2u(int64(rs1) < int64(rs2)))
	case isa.OpSLTU:
		setReg(inst.Rd, b2u(rs1 < rs2))
	case isa.OpXOR:
		setReg(inst.Rd, rs1^rs2)
	case isa.OpSRL:
		setReg(inst.Rd, rs1>>(rs2&63))
	case isa.OpSRA:
		setReg(inst.Rd, uint64(int64(rs1)>>(rs2&63)))
	case isa.OpOR:
		setReg(inst.Rd, rs1|rs2)
	case isa.OpAND:
		setReg(inst.Rd, rs1&rs2)
	case isa.OpADDW:
		setReg(inst.Rd, sext32(uint32(rs1)+uint32(rs2)))
	case isa.OpSUBW:
		setReg(inst.Rd, sext32(uint32(rs1)-uint32(rs2)))
	case isa.OpSLLW:
		setReg(inst.Rd, sext32(uint32(rs1)<<(rs2&31)))
	case isa.OpSRLW:
		setReg(inst.Rd, sext32(uint32(rs1)>>(rs2&31)))
	case isa.OpSRAW:
		setReg(inst.Rd, uint64(int64(int32(rs1)>>(rs2&31))))
	case isa.OpMUL:
		setReg(inst.Rd, rs1*rs2)
	case isa.OpMULH:
		setReg(inst.Rd, mulh(int64(rs1), int64(rs2)))
	case isa.OpMULHSU:
		setReg(inst.Rd, mulhsu(int64(rs1), rs2))
	case isa.OpMULHU:
		setReg(inst.Rd, mulhu(rs1, rs2))
	case isa.OpDIV:
		setReg(inst.Rd, uint64(divS(int64(rs1), int64(rs2))))
	case isa.OpDIVU:
		setReg(inst.Rd, divU(rs1, rs2))
	case isa.OpREM:
		setReg(inst.Rd, uint64(remS(int64(rs1), int64(rs2))))
	case isa.OpREMU:
		setReg(inst.Rd, remU(rs1, rs2))
	case isa.OpMULW:
		setReg(inst.Rd, sext32(uint32(rs1)*uint32(rs2)))
	case isa.OpDIVW:
		setReg(inst.Rd, uint64(int64(int32(divS(int64(int32(rs1)), int64(int32(rs2)))))))
	case isa.OpDIVUW:
		setReg(inst.Rd, sext32(uint32(divU(uint64(uint32(rs1)), uint64(uint32(rs2))))))
	case isa.OpREMW:
		setReg(inst.Rd, uint64(int64(int32(remS(int64(int32(rs1)), int64(int32(rs2)))))))
	case isa.OpREMUW:
		setReg(inst.Rd, sext32(uint32(remU(uint64(uint32(rs1)), uint64(uint32(rs2))))))
	case isa.OpFENCE:
		// Memory ordering is architectural no-op in the functional model.
	case isa.OpEBREAK:
		m.halted = true
		m.exitCode = -1
	case isa.OpECALL:
		m.syscall()
	default:
		return Retired{}, fmt.Errorf("emu: unimplemented opcode %v at pc %#x", inst.Op, pc)
	}

	m.PC = r.NextPC
	m.seq++
	return r, nil
}

// syscall implements the minimal Linux-style ABI: a7 selects the call.
func (m *Machine) syscall() {
	switch m.Regs[isa.A7] {
	case SysExit:
		m.halted = true
		m.exitCode = int(int64(m.Regs[isa.A0]))
	case SysWrite:
		buf := m.Regs[isa.A1]
		n := m.Regs[isa.A2]
		if n > 1<<20 {
			n = 1 << 20
		}
		m.output.Write(m.Mem.LoadBytes(buf, int(n)))
		m.Regs[isa.A0] = n
	default:
		// Unknown syscalls return -1, like a strict seccomp sandbox.
		m.Regs[isa.A0] = math.MaxUint64
	}
}

// Run executes until the program exits or maxInsts instructions retire.
// It returns the number of instructions retired.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	start := m.seq
	for !m.halted && m.seq-start < maxInsts {
		if _, err := m.Step(); err != nil {
			return m.seq - start, err
		}
	}
	return m.seq - start, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

// mulh computes the high 64 bits of the signed 128-bit product.
func mulh(a, b int64) uint64 {
	hi := mulhu(uint64(a), uint64(b))
	// Correct the unsigned product for negative operands.
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi
}

// mulhsu computes the high 64 bits of signed × unsigned.
func mulhsu(a int64, b uint64) uint64 {
	hi := mulhu(uint64(a), b)
	if a < 0 {
		hi -= b
	}
	return hi
}

// mulhu computes the high 64 bits of the unsigned 128-bit product.
func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

func divS(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	}
	return a / b
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return math.MaxUint64
	}
	return a / b
}

func remS(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return a % b
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
