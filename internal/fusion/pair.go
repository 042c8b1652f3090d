package fusion

import (
	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/uop"
)

// The memory-pair rulebook (Section IV-B). Every component that fuses a
// memory pair decides it here: the Oracle, decode-time consecutive
// fusion (MatchMemPair), and the pipeline's AQ-time head search and
// rename-time validation. Eligible says which accesses may pair,
// CheckCatalyst which catalysts forbid it, and Pair describes the pair.

// Pairing describes one fused memory pair in the dynamic stream.
type Pairing struct {
	HeadSeq   uint64
	TailSeq   uint64
	Distance  int // tail seq - head seq (1 = consecutive)
	Kind      uop.FuseKind
	Category  uop.AddrCategory
	SameBase  bool // same architectural base register
	Symmetric bool // equal access sizes
}

// Consecutive reports whether the pair has an empty catalyst.
func (p Pairing) Consecutive() bool { return p.Distance == 1 }

// Eligible reports whether head and tail are accesses that may pair: two
// loads, or two stores through one base register. Store pairs with
// different base registers are not fused: they are negligible
// (Section IV-B) and would need a fourth source register.
func Eligible(head, tail isa.Inst) bool {
	switch {
	case head.Op.IsLoad():
		return tail.Op.IsLoad()
	case head.Op.IsStore():
		return tail.Op.IsStore() && head.Rs1 == tail.Rs1
	}
	return false
}

// Pair returns the pairing of an eligible head and tail, classifying
// their addresses against a lineSize-byte region.
func Pair(h, t *emu.Retired, lineSize uint64) Pairing {
	kind := uop.FuseLoadPair
	if h.IsStore() {
		kind = uop.FuseStorePair
	}
	return Pairing{
		HeadSeq:   h.Seq,
		TailSeq:   t.Seq,
		Distance:  int(t.Seq - h.Seq),
		Kind:      kind,
		Category:  uop.Classify(h.EA, h.MemSize, t.EA, t.MemSize, lineSize),
		SameBase:  h.Inst.Rs1 == t.Inst.Rs1,
		Symmetric: h.MemSize == t.MemSize,
	}
}

// UnfuseReason names the rule an eligible pair breaks. The values index
// ooo.Stats.UnfuseReasons.
type UnfuseReason uint8

// Unfuse reasons, in the order CheckCatalyst applies them.
const (
	// UnfuseWindow: the pair's records left the pipeline's window, or
	// its head blocks a full ROB while the tail waits to rename.
	UnfuseWindow UnfuseReason = iota
	// UnfuseSerializing: a fence, ecall or ebreak in the catalyst.
	UnfuseSerializing
	// UnfuseStore: a store pair with another store in its catalyst
	// (memory consistency, Section IV-B4).
	UnfuseStore
	// UnfuseBaseRewrite: a store pair whose catalyst rewrites the base
	// register. The two stores' base values differ, which makes it a DBR
	// store pair by value.
	UnfuseBaseRewrite
	// UnfuseDeadlock: a load pair whose tail depends on its head.
	UnfuseDeadlock
	// NumUnfuseReasons sizes per-reason counters.
	NumUnfuseReasons
)

func (r UnfuseReason) String() string {
	switch r {
	case UnfuseWindow:
		return "window"
	case UnfuseSerializing:
		return "serial"
	case UnfuseStore:
		return "store"
	case UnfuseBaseRewrite:
		return "dbr"
	case UnfuseDeadlock:
		return "deadlock"
	}
	return "?"
}

// CheckCatalyst applies the catalyst rules to span, the records from an
// eligible pair's head to its tail inclusive, oldest first. It returns
// the first rule the pair breaks, in UnfuseReason order, and false when
// the pair may fuse. A span of fewer than two records (the pair is no
// longer in the window) reports UnfuseWindow. The store rules apply only
// to store pairs and the deadlock rule only to load pairs.
func CheckCatalyst(span []emu.Retired) (UnfuseReason, bool) {
	switch {
	case len(span) < 2:
		return UnfuseWindow, true
	case catalystHasSerializing(span):
		return UnfuseSerializing, true
	case span[0].IsStore() && catalystHasStore(span):
		return UnfuseStore, true
	case span[0].IsStore() && catalystWritesReg(span, span[0].Inst.Rs1):
		return UnfuseBaseRewrite, true
	case span[0].IsLoad() && tailDependsOnHead(span):
		return UnfuseDeadlock, true
	}
	return 0, false
}

// tailDependsOnHead reports whether the last record's instruction depends,
// directly or transitively through the catalyst, on the first record's
// destination register. A fused pair with such a dependence would
// deadlock (Section IV-B2): the fused µ-op cannot issue before a source
// that only its own execution can produce.
func tailDependsOnHead(records []emu.Retired) bool {
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

// catalystHasStore reports whether any record strictly between head and
// tail is a store.
func catalystHasStore(records []emu.Retired) bool {
	for _, r := range records[1 : len(records)-1] {
		if r.IsStore() {
			return true
		}
	}
	return false
}

// catalystHasSerializing reports whether any record strictly between head
// and tail is a serializing instruction (fence/ecall/ebreak).
func catalystHasSerializing(records []emu.Retired) bool {
	for _, r := range records[1 : len(records)-1] {
		if r.Inst.Op.IsSerializing() {
			return true
		}
	}
	return false
}

// catalystWritesReg reports whether any record strictly between head and
// tail writes r.
func catalystWritesReg(records []emu.Retired, r isa.Reg) bool {
	for _, rec := range records[1 : len(records)-1] {
		if rec.Inst.WritesReg(r) {
			return true
		}
	}
	return false
}
