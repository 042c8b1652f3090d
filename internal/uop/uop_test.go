package uop

import (
	"testing"
	"testing/quick"

	"helios/internal/isa"
)

func TestClassify(t *testing.T) {
	const line = 64
	cases := []struct {
		name string
		ea1  uint64
		sz1  uint8
		ea2  uint64
		sz2  uint8
		want AddrCategory
	}{
		{"contiguous 8+8", 0, 8, 8, 8, AddrContiguous},
		{"contiguous reversed", 8, 8, 0, 8, AddrContiguous},
		{"contiguous asymmetric", 0, 8, 8, 4, AddrContiguous},
		{"overlap exact", 16, 8, 16, 8, AddrOverlapping},
		{"overlap partial", 16, 8, 20, 8, AddrOverlapping},
		{"same line with gap", 0, 8, 32, 8, AddrSameLine},
		{"same line far apart", 0, 4, 60, 4, AddrSameLine},
		{"next line within region", 32, 8, 72, 8, AddrNextLine},
		{"contiguous across line", 56, 8, 64, 8, AddrContiguous},
		{"too far", 0, 8, 120, 8, AddrTooFar},
		{"way too far", 0, 8, 4096, 8, AddrTooFar},
		{"zero size", 0, 0, 8, 8, AddrNone},
	}
	for _, c := range cases {
		if got := Classify(c.ea1, c.sz1, c.ea2, c.sz2, line); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifySymmetry(t *testing.T) {
	f := func(ea1, ea2 uint64, s1, s2 uint8) bool {
		sz1 := 1 << (s1 % 4) // 1,2,4,8
		sz2 := 1 << (s2 % 4)
		ea1 &= 0xffff
		ea2 &= 0xffff
		a := Classify(ea1, uint8(sz1), ea2, uint8(sz2), 64)
		b := Classify(ea2, uint8(sz2), ea1, uint8(sz1), 64)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyFuseableImpliesWithinRegion(t *testing.T) {
	f := func(ea1, ea2 uint64, s1, s2 uint8) bool {
		sz1 := uint8(1 << (s1 % 4))
		sz2 := uint8(1 << (s2 % 4))
		ea1 &= 0xffff
		ea2 &= 0xffff
		cat := Classify(ea1, sz1, ea2, sz2, 64)
		lo, span := CombinedRange(ea1, sz1, ea2, sz2)
		_ = lo
		if cat.Fuseable() && span > 64 {
			return false
		}
		if cat == AddrTooFar && span <= 64 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossesLine(t *testing.T) {
	cases := []struct {
		lo, span uint64
		want     bool
	}{
		{0, 8, false},
		{56, 8, false},
		{57, 8, true},
		{60, 16, true},
		{64, 64, false},
		{63, 2, true},
		{0, 0, false},
	}
	for _, c := range cases {
		if got := CrossesLine(c.lo, c.span, 64); got != c.want {
			t.Errorf("CrossesLine(%d,%d) = %v, want %v", c.lo, c.span, got, c.want)
		}
	}
}

func TestDest(t *testing.T) {
	add := isa.Inst{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2}
	if d, ok := Dest(add); !ok || d != isa.A0 {
		t.Errorf("Dest(add) = %v, %v", d, ok)
	}
	// Writes to x0 do not count.
	addz := isa.Inst{Op: isa.OpADD, Rd: isa.Zero, Rs1: isa.Zero, Rs2: isa.A2}
	if _, ok := Dest(addz); ok {
		t.Error("Dest(x0) should not count")
	}
	// Stores have no destination.
	sd := isa.Inst{Op: isa.OpSD, Rs1: isa.SP, Rs2: isa.A0}
	if _, ok := Dest(sd); ok {
		t.Error("stores have no destination")
	}
}

func TestFuseKind(t *testing.T) {
	if !FuseLoadPair.IsMemory() || !FuseStorePair.IsMemory() {
		t.Error("pair kinds must be memory")
	}
	if FuseIdiom.IsMemory() || FuseNone.IsMemory() {
		t.Error("idiom/none must not be memory")
	}
	for _, k := range []FuseKind{FuseNone, FuseIdiom, FuseLoadPair, FuseStorePair} {
		if k.String() == "?" {
			t.Errorf("missing String for %d", k)
		}
	}
}
