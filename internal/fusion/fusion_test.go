package fusion

import (
	"testing"

	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/trace"
	"helios/internal/uop"
)

func inst(op isa.Opcode, rd, rs1, rs2 isa.Reg, imm int64) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

func TestMatchNonMemIdioms(t *testing.T) {
	cases := []struct {
		name string
		a, b isa.Inst
		want Idiom
	}{
		{
			"lea",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 3),
			inst(isa.OpADD, isa.T0, isa.T0, isa.A1, 0),
			IdiomLEA,
		},
		{
			"lea shift too large",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 4),
			inst(isa.OpADD, isa.T0, isa.T0, isa.A1, 0),
			IdiomNone,
		},
		{
			"lea different dest",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 3),
			inst(isa.OpADD, isa.T1, isa.T0, isa.A1, 0),
			IdiomNone,
		},
		{
			"clear upper word",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 32),
			inst(isa.OpSRLI, isa.T0, isa.T0, 0, 32),
			IdiomClearUpper,
		},
		{
			"load imm",
			inst(isa.OpLUI, isa.T0, 0, 0, 0x12000),
			inst(isa.OpADDIW, isa.T0, isa.T0, 0, 0x345),
			IdiomLoadImm,
		},
		{
			"auipc addi",
			inst(isa.OpAUIPC, isa.T0, 0, 0, 0x1000),
			inst(isa.OpADDI, isa.T0, isa.T0, 0, 8),
			IdiomAuipcAddi,
		},
		{
			"load global",
			inst(isa.OpLUI, isa.T0, 0, 0, 0x12000),
			inst(isa.OpLD, isa.T0, isa.T0, 0, 16),
			IdiomLoadGlobal,
		},
		{
			"indexed load",
			inst(isa.OpADD, isa.T0, isa.A0, isa.A1, 0),
			inst(isa.OpLD, isa.T0, isa.T0, 0, 0),
			IdiomIndexedLoad,
		},
		{
			"indexed load different dest rejected",
			inst(isa.OpADD, isa.T0, isa.A0, isa.A1, 0),
			inst(isa.OpLD, isa.T1, isa.T0, 0, 0),
			IdiomNone,
		},
		{
			"x0 destination rejected",
			inst(isa.OpSLLI, isa.Zero, isa.A0, 0, 3),
			inst(isa.OpADD, isa.Zero, isa.Zero, isa.A1, 0),
			IdiomNone,
		},
	}
	for _, c := range cases {
		if got := MatchNonMemIdiom(c.a, c.b); got != c.want {
			t.Errorf("%s: MatchNonMemIdiom = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMatchMemPair(t *testing.T) {
	ld := func(rd isa.Reg, imm int64) isa.Inst { return inst(isa.OpLD, rd, isa.A0, 0, imm) }
	sd := func(rs2 isa.Reg, imm int64) isa.Inst { return inst(isa.OpSD, 0, isa.A0, rs2, imm) }

	if id, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T1, 8)); !ok || id != IdiomLoadPair {
		t.Error("contiguous load pair not matched")
	}
	if id, ok := MatchMemPair(ld(isa.T0, 8), ld(isa.T1, 0)); !ok || id != IdiomLoadPair {
		t.Error("descending contiguous load pair not matched")
	}
	if _, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T1, 16)); ok {
		t.Error("gap pair must not match statically")
	}
	if _, ok := MatchMemPair(ld(isa.A0, 0), ld(isa.T1, 8)); ok {
		t.Error("dependent loads (base overwritten) must not match")
	}
	if _, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T0, 8)); ok {
		t.Error("same destination must not match")
	}
	if id, ok := MatchMemPair(sd(isa.T0, 0), sd(isa.T1, 8)); !ok || id != IdiomStorePair {
		t.Error("store pair not matched")
	}
	// Different base registers never match statically.
	other := inst(isa.OpLD, isa.T1, isa.A1, 0, 8)
	if _, ok := MatchMemPair(ld(isa.T0, 0), other); ok {
		t.Error("different base must not match")
	}
	// Asymmetric pair: ld + lw contiguous.
	lw := inst(isa.OpLW, isa.T1, isa.A0, 0, 8)
	if id, ok := MatchMemPair(ld(isa.T0, 0), lw); !ok || id != IdiomLoadPair {
		t.Error("asymmetric contiguous pair should match")
	}
	// A load and a store never pair.
	if _, ok := MatchMemPair(ld(isa.T0, 0), sd(isa.T1, 8)); ok {
		t.Error("load + store must not match")
	}
}

func TestEligible(t *testing.T) {
	cases := []struct {
		name       string
		head, tail isa.Inst
		want       bool
	}{
		{"two loads", inst(isa.OpLD, isa.T0, isa.A0, 0, 0), inst(isa.OpLW, isa.T1, isa.A1, 0, 8), true},
		{"two stores, one base", inst(isa.OpSD, 0, isa.A0, isa.T0, 0), inst(isa.OpSW, 0, isa.A0, isa.T1, 8), true},
		{"two stores, two bases", inst(isa.OpSD, 0, isa.A0, isa.T0, 0), inst(isa.OpSD, 0, isa.A1, isa.T1, 8), false},
		{"load then store", inst(isa.OpLD, isa.T0, isa.A0, 0, 0), inst(isa.OpSD, 0, isa.A0, isa.T1, 8), false},
		{"store then load", inst(isa.OpSD, 0, isa.A0, isa.T0, 0), inst(isa.OpLD, isa.T1, isa.A0, 0, 8), false},
		{"alu head", inst(isa.OpADD, isa.T0, isa.A0, isa.A1, 0), inst(isa.OpLD, isa.T1, isa.A0, 0, 8), false},
	}
	for _, c := range cases {
		if got := Eligible(c.head, c.tail); got != c.want {
			t.Errorf("%s: Eligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// mem builds a Retired memory record.
func mem(seq uint64, op isa.Opcode, base isa.Reg, rd isa.Reg, ea uint64) emu.Retired {
	i := isa.Inst{Op: op, Rs1: base}
	if op.IsLoad() {
		i.Rd = rd
	} else {
		i.Rs2 = rd
	}
	return emu.Retired{Seq: seq, PC: 0x1000 + seq*4, Inst: i, EA: ea, MemSize: op.MemSize()}
}

// alu builds a Retired ALU record rd = rs1 op rs2.
func alu(seq uint64, rd, rs1, rs2 isa.Reg) emu.Retired {
	return emu.Retired{Seq: seq, PC: 0x1000 + seq*4, Inst: inst(isa.OpADD, rd, rs1, rs2, 0)}
}

func TestTailDependsOnHead(t *testing.T) {
	// ld x1 <- [x2]; add x3 = x1+1; ld x4 <- [x3]: deadlock.
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 3, 1, 0),
		mem(2, isa.OpLD, 3, 4, 0x108),
	}
	if !tailDependsOnHead(recs) {
		t.Error("indirect dependence not detected")
	}
	// Independent catalyst.
	recs2 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 5, 6, 7),
		mem(2, isa.OpLD, 2, 4, 0x108),
	}
	if tailDependsOnHead(recs2) {
		t.Error("false dependence detected")
	}
	// Taint killed by overwrite: x3 tainted then overwritten with clean value.
	recs3 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 3, 1, 0), // x3 tainted
		alu(2, 3, 6, 7), // x3 overwritten clean
		mem(3, isa.OpLD, 3, 4, 0x108),
	}
	if tailDependsOnHead(recs3) {
		t.Error("overwritten taint should clear")
	}
	// Direct dependence (tail base is head dest).
	recs4 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		mem(1, isa.OpLD, 1, 4, 0x108),
	}
	if !tailDependsOnHead(recs4) {
		t.Error("direct dependence not detected")
	}
}

// TestCatalystPredicates drives CheckCatalyst through every reason, the
// precedence between them, and the rules that apply to one pair kind
// only. CheckCatalyst reads no addresses: only opcodes and registers
// matter.
func TestCatalystPredicates(t *testing.T) {
	ld := func(seq uint64, base, rd isa.Reg) emu.Retired { return mem(seq, isa.OpLD, base, rd, 0x100+8*seq) }
	sd := func(seq uint64, base, rs2 isa.Reg) emu.Retired { return mem(seq, isa.OpSD, base, rs2, 0x100+8*seq) }
	fence := func(seq uint64) emu.Retired { return emu.Retired{Seq: seq, Inst: isa.Inst{Op: isa.OpFENCE}} }
	far := func(seq uint64) emu.Retired { return mem(seq, isa.OpSD, 9, 5, 0x4000) } // a store elsewhere

	cases := []struct {
		name   string
		span   []emu.Retired
		want   UnfuseReason
		unfuse bool
	}{
		{"no span", nil, UnfuseWindow, true},
		{"head only", []emu.Retired{ld(0, 2, 1)}, UnfuseWindow, true},
		{"consecutive loads", []emu.Retired{ld(0, 2, 1), ld(1, 2, 3)}, 0, false},
		{"clean load catalyst", []emu.Retired{ld(0, 2, 1), alu(1, 5, 6, 7), ld(2, 2, 3)}, 0, false},
		{"clean store catalyst", []emu.Retired{sd(0, 2, 1), alu(1, 5, 6, 7), sd(2, 2, 3)}, 0, false},
		{"load pair across a fence", []emu.Retired{ld(0, 2, 1), fence(1), ld(2, 2, 3)}, UnfuseSerializing, true},
		{"store pair across a fence", []emu.Retired{sd(0, 2, 1), fence(1), sd(2, 2, 3)}, UnfuseSerializing, true},
		{"store pair across a store", []emu.Retired{sd(0, 2, 1), far(1), sd(2, 2, 3)}, UnfuseStore, true},
		{"store pair across a base rewrite", []emu.Retired{sd(0, 2, 1), alu(1, 2, 2, 0), sd(2, 2, 3)}, UnfuseBaseRewrite, true},
		{"load pair with a dependent tail", []emu.Retired{ld(0, 2, 1), alu(1, 3, 1, 0), ld(2, 3, 4)}, UnfuseDeadlock, true},

		// Precedence: serializing > store > base rewrite.
		{"fence beats store, store first", []emu.Retired{sd(0, 2, 1), far(1), fence(2), sd(3, 2, 3)}, UnfuseSerializing, true},
		{"fence beats store, fence first", []emu.Retired{sd(0, 2, 1), fence(1), far(2), sd(3, 2, 3)}, UnfuseSerializing, true},
		{"store beats base rewrite", []emu.Retired{sd(0, 2, 1), alu(1, 2, 2, 0), far(2), sd(3, 2, 3)}, UnfuseStore, true},
		{"fence beats deadlock", []emu.Retired{ld(0, 2, 1), alu(1, 3, 1, 0), fence(2), ld(3, 3, 4)}, UnfuseSerializing, true},

		// A load pair ignores the store rules ...
		{"load pair across a store", []emu.Retired{ld(0, 2, 1), far(1), ld(2, 2, 3)}, 0, false},
		{"load pair across a base rewrite", []emu.Retired{ld(0, 2, 1), alu(1, 2, 6, 7), ld(2, 2, 3)}, 0, false},
		// ... and a store pair the deadlock rule: its tail's data register
		// comes through the catalyst from the head's, but a store writes
		// no register for it to wait on.
		{"store pair, tail data from head data", []emu.Retired{sd(0, 2, 1), alu(1, 3, 1, 0), sd(2, 2, 3)}, 0, false},
	}
	for _, c := range cases {
		got, unfuse := CheckCatalyst(c.span)
		if unfuse != c.unfuse || (unfuse && got != c.want) {
			t.Errorf("%s: CheckCatalyst = %v, %v; want %v, %v", c.name, got, unfuse, c.want, c.unfuse)
		}
	}
	for r := UnfuseReason(0); r < NumUnfuseReasons; r++ {
		if r.String() == "?" {
			t.Errorf("reason %d has no name", r)
		}
	}
}

// stream feeds an Oracle one record at a time, keeping the records
// observed so far as the caller's copy of the stream.
type stream struct {
	o    *Oracle
	recs []emu.Retired
}

func newStream(cfg PairConfig) *stream { return &stream{o: NewOracle(cfg)} }

// Observe appends r to the stream and observes it as the new tail.
func (s *stream) Observe(r emu.Retired) (Pairing, bool) {
	s.recs = append(s.recs, r)
	return s.o.Observe(s.recs)
}

func TestOracleConsecutivePair(t *testing.T) {
	o := newStream(DefaultPairConfig())
	if _, ok := o.Observe(mem(0, isa.OpLD, 2, 1, 0x100)); ok {
		t.Error("first load cannot pair")
	}
	p, ok := o.Observe(mem(1, isa.OpLD, 2, 3, 0x108))
	if !ok {
		t.Fatal("contiguous pair not found")
	}
	if p.HeadSeq != 0 || p.TailSeq != 1 || !p.Consecutive() || p.Kind != uop.FuseLoadPair {
		t.Errorf("pairing = %+v", p)
	}
	if p.Category != uop.AddrContiguous || !p.SameBase || !p.Symmetric {
		t.Errorf("pairing attributes = %+v", p)
	}
}

func TestOracleNonConsecutivePair(t *testing.T) {
	o := newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	o.Observe(alu(2, 8, 9, 10))
	p, ok := o.Observe(mem(3, isa.OpLD, 11, 3, 0x120)) // different base, same line
	if !ok {
		t.Fatal("NCSF DBR pair not found")
	}
	if p.Distance != 3 || p.SameBase {
		t.Errorf("pairing = %+v", p)
	}
	if p.Category != uop.AddrSameLine {
		t.Errorf("category = %v", p.Category)
	}
}

func TestOracleRejectsDeadlock(t *testing.T) {
	o := newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 3, 1, 0))                                 // x3 = f(x1): tainted
	if _, ok := o.Observe(mem(2, isa.OpLD, 3, 4, 0x108)); ok { // base x3
		t.Error("deadlocking pair must not fuse")
	}
}

func TestOracleStoreRules(t *testing.T) {
	o := newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	o.Observe(mem(1, isa.OpSD, 2, 5, 0x200)) // intervening store, too far to pair
	if _, ok := o.Observe(mem(2, isa.OpSD, 2, 4, 0x108)); ok {
		t.Error("store pair across another store must not fuse")
	}

	o = newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	p, ok := o.Observe(mem(2, isa.OpSD, 2, 4, 0x108))
	if !ok || p.Kind != uop.FuseStorePair {
		t.Error("NCSF store pair with clean catalyst should fuse")
	}

	// DBR stores never fuse.
	o = newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpSD, 9, 4, 0x108)); ok {
		t.Error("DBR store pair must not fuse")
	}
}

func TestOracleNoDoublePairing(t *testing.T) {
	o := newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpLD, 2, 3, 0x108)); !ok {
		t.Fatal("first pair missing")
	}
	// Seq 0 and 1 are used; a third load to the same line must not re-pair
	// with them.
	if p, ok := o.Observe(mem(2, isa.OpLD, 2, 4, 0x110)); ok {
		t.Errorf("third load paired with used µ-op: %+v", p)
	}
	// But a fourth can pair with the third.
	if _, ok := o.Observe(mem(3, isa.OpLD, 2, 5, 0x118)); !ok {
		t.Error("fourth load should pair with third")
	}
}

func TestOracleMaxDistance(t *testing.T) {
	cfg := DefaultPairConfig()
	cfg.MaxDist = 4
	o := newStream(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	for i := uint64(1); i <= 4; i++ {
		o.Observe(alu(i, 5, 6, 7))
	}
	if _, ok := o.Observe(mem(5, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("pair beyond MaxDist must not fuse")
	}
}

func TestOracleSerializingBlocks(t *testing.T) {
	o := newStream(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(emu.Retired{Seq: 1, Inst: isa.Inst{Op: isa.OpFENCE}})
	if _, ok := o.Observe(mem(2, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("pair across fence must not fuse")
	}
}

func TestOracleRestrictedConfigs(t *testing.T) {
	// ConsecutiveOnly rejects distance-2 pairs.
	cfg := DefaultPairConfig()
	cfg.ConsecutiveOnly = true
	o := newStream(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	if _, ok := o.Observe(mem(2, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("ConsecutiveOnly violated")
	}
}

// TestOracleResetFloor re-primes the oracle as a pipeline flush does:
// re-observing a paired head clears its paired bit, and Reset(start)
// keeps heads older than start out of reach.
func TestOracleResetFloor(t *testing.T) {
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 5, 6, 7),
		mem(2, isa.OpLD, 2, 3, 0x108),
	}
	o := NewOracle(DefaultPairConfig())
	o.Observe(recs[:1])
	o.Observe(recs[:2])
	if _, ok := o.Observe(recs); !ok {
		t.Fatal("NCSF pair not found")
	}

	o.Reset(0) // a flush from seq 2, re-primed from seq 0
	o.Observe(recs[:1])
	o.Observe(recs[:2])
	if _, ok := o.Observe(recs); !ok {
		t.Error("a re-observed head kept its paired bit")
	}

	o = NewOracle(DefaultPairConfig())
	o.Reset(1) // a flush from seq 2, re-primed from seq 1
	o.Observe(recs[:2])
	if p, ok := o.Observe(recs); ok {
		t.Errorf("paired with a head below the floor: %+v", p)
	}
}

func TestModePredicates(t *testing.T) {
	if ModeNoFusion.NonMemIdioms() || ModeNoFusion.ConsecutiveMemPairs() {
		t.Error("NoFusion must fuse nothing")
	}
	if !ModeRISCVFusion.NonMemIdioms() || ModeRISCVFusion.ConsecutiveMemPairs() {
		t.Error("RISCVFusion is non-memory only")
	}
	if ModeCSFSBR.NonMemIdioms() || !ModeCSFSBR.ConsecutiveMemPairs() {
		t.Error("CSF-SBR is memory only")
	}
	if !ModeRISCVFusionPP.NonMemIdioms() || !ModeRISCVFusionPP.ConsecutiveMemPairs() {
		t.Error("RISCVFusion++ fuses everything static")
	}
	if !ModeHelios.Predictive() || ModeOracle.Predictive() {
		t.Error("only Helios is predictive")
	}
	if !ModeOracle.OraclePairs() || ModeHelios.OraclePairs() {
		t.Error("only Oracle uses perfect pairing")
	}
	for _, m := range Modes {
		got, ok := ModeByName(m.String())
		if !ok || got != m {
			t.Errorf("ModeByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
}

func TestAnalyzeTrace(t *testing.T) {
	// Build a small synthetic trace: a contiguous consecutive load pair,
	// an NCSF pair with one ALU between, and a lone load.
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		mem(1, isa.OpLD, 2, 3, 0x108), // CSF contiguous with 0
		alu(2, 5, 6, 7),
		mem(3, isa.OpLD, 2, 4, 0x200),
		alu(4, 8, 9, 10),
		mem(5, isa.OpLD, 2, 11, 0x210),  // NCSF same line with 3
		mem(6, isa.OpLD, 2, 12, 0x4000), // lone
	}
	st := AnalyzeTrace(trace.FromRecords("synthetic", 0, recs), DefaultPairConfig())

	if st.TotalUops != 7 {
		t.Errorf("TotalUops = %d, want 7", st.TotalUops)
	}
	if st.CSFPairs != 1 || st.NCSFPairs != 1 {
		t.Errorf("pairs = %d CSF, %d NCSF; want 1/1", st.CSFPairs, st.NCSFPairs)
	}
	if st.CSFByCategory[uop.AddrContiguous] != 1 {
		t.Error("CSF category wrong")
	}
	if st.MeanDistance() != 1.5 {
		t.Errorf("mean distance = %v, want 1.5", st.MeanDistance())
	}
}
