// Package isa defines the RV64IM instruction set used throughout the
// simulator: architectural registers, opcodes with micro-architectural
// metadata, and binary encode/decode/disassemble routines.
//
// The subset implemented is the one exercised by the workloads in
// internal/workloads and covers the full RV64I base plus the M extension,
// FENCE, ECALL and EBREAK. Every instruction decodes to a single µ-op
// (as in the paper, where RISC-V memory instructions always translate to a
// single µ-op).
package isa

import "fmt"

// Reg is an architectural register index (x0..x31).
type Reg uint8

// Architectural registers by ABI name.
const (
	Zero Reg = iota // x0: hardwired zero
	RA              // x1: return address
	SP              // x2: stack pointer
	GP              // x3: global pointer
	TP              // x4: thread pointer
	T0              // x5
	T1              // x6
	T2              // x7
	S0              // x8 / fp
	S1              // x9
	A0              // x10
	A1              // x11
	A2              // x12
	A3              // x13
	A4              // x14
	A5              // x15
	A6              // x16
	A7              // x17
	S2              // x18
	S3              // x19
	S4              // x20
	S5              // x21
	S6              // x22
	S7              // x23
	S8              // x24
	S9              // x25
	S10             // x26
	S11             // x27
	T3              // x28
	T4              // x29
	T5              // x30
	T6              // x31
)

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

var abiNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register (e.g. "a0").
func (r Reg) String() string {
	if int(r) < len(abiNames) {
		return abiNames[r]
	}
	return fmt.Sprintf("x%d?", uint8(r))
}

// RegByName resolves a register name, accepting both numeric ("x10") and
// ABI ("a0", "fp") forms. The second result reports whether the name was
// recognised.
func RegByName(name string) (Reg, bool) {
	if name == "fp" {
		return S0, true
	}
	for i, n := range abiNames {
		if n == name {
			return Reg(i), true
		}
	}
	if len(name) >= 2 && name[0] == 'x' {
		n := 0
		for _, c := range name[1:] {
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		if n < NumRegs {
			return Reg(n), true
		}
	}
	return 0, false
}
