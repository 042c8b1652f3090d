// Package asm implements a two-pass assembler for the RV64IM subset
// defined in internal/isa. It supports the usual GNU-style directives
// (.text/.data/.align/.word/.dword/.byte/.half/.asciz/.zero), labels,
// %hi/%lo relocations and the standard RISC-V pseudo-instructions
// (li, la, mv, call, ret, beqz, j, ...), which is enough to write the
// benchmark kernels in internal/workloads by hand.
package asm

import (
	"fmt"
	"sort"

	"helios/internal/isa"
)

// Default placement of the two sections in the flat address space used by
// the emulator. The stack grows down from StackTop.
const (
	DefaultTextBase = 0x0001_0000
	DefaultDataBase = 0x0010_0000
	StackTop        = 0x7fff_f000
)

// Program is the output of the assembler: a flat text image, a flat data
// image and the symbol table.
type Program struct {
	TextBase uint64
	Text     []uint32 // instruction words, 4 bytes each
	DataBase uint64
	Data     []byte
	Entry    uint64
	Symbols  map[string]uint64
}

// Symbol returns the address of a defined symbol.
func (p *Program) Symbol(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// Disassemble renders the full text section with addresses, for debugging.
func (p *Program) Disassemble() string {
	out := ""
	addr2sym := map[uint64]string{}
	for s, a := range p.Symbols {
		addr2sym[a] = s
	}
	for i, w := range p.Text {
		pc := p.TextBase + uint64(4*i)
		if s, ok := addr2sym[pc]; ok {
			out += s + ":\n"
		}
		out += fmt.Sprintf("  %08x: %08x  %s\n", pc, w, isa.Decode(w))
	}
	return out
}

// SortedSymbols returns symbol names ordered by address, for stable output.
func (p *Program) SortedSymbols() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
