package fusion

import (
	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/uop"
)

// TailDependsOnHead reports whether the last record's instruction depends,
// directly or transitively through the catalyst, on the first record's
// destination register. records must be ordered oldest first and contain
// at least head and tail. A fused pair with such a dependence would
// deadlock (Section IV-B2): the fused µ-op cannot issue before a source
// that only its own execution can produce.
func TailDependsOnHead(records []emu.Retired) bool {
	if len(records) < 2 {
		return false
	}
	head := records[0].Inst
	tail := records[len(records)-1].Inst
	var taint uint32
	if d, ok := uop.Dest(head); ok {
		taint |= 1 << d
	}
	if taint == 0 {
		return false // stores write no register: nothing to depend on
	}
	for _, r := range records[1 : len(records)-1] {
		in := r.Inst
		reads := false
		if in.Op.HasRs1() && in.Rs1 != isa.Zero && taint&(1<<in.Rs1) != 0 {
			reads = true
		}
		if in.Op.HasRs2() && in.Rs2 != isa.Zero && taint&(1<<in.Rs2) != 0 {
			reads = true
		}
		if d, ok := uop.Dest(in); ok {
			if reads {
				taint |= 1 << d
			} else {
				taint &^= 1 << d // overwritten with an untainted value
			}
		}
	}
	if tail.Op.HasRs1() && tail.Rs1 != isa.Zero && taint&(1<<tail.Rs1) != 0 {
		return true
	}
	if tail.Op.HasRs2() && tail.Rs2 != isa.Zero && taint&(1<<tail.Rs2) != 0 {
		return true
	}
	return false
}

// CatalystHasStore reports whether any record strictly between head and
// tail is a store. Store pairs must not fuse across another store
// (memory consistency, Section IV-B4).
func CatalystHasStore(records []emu.Retired) bool {
	for _, r := range records[1 : len(records)-1] {
		if r.IsStore() {
			return true
		}
	}
	return false
}

// CatalystHasSerializing reports whether any record strictly between head
// and tail is a serializing instruction (fence/ecall/ebreak).
func CatalystHasSerializing(records []emu.Retired) bool {
	for _, r := range records[1 : len(records)-1] {
		if r.Inst.Op.IsSerializing() {
			return true
		}
	}
	return false
}
