package ooo

import (
	"testing"

	"helios/internal/fusion"
	"helios/internal/helios"
)

// The kernels below are crafted to steer execution into specific Helios
// repair cases (Section IV-C) and validation rules (Section IV-B), then
// assert both the mechanism fired and that architecture was preserved.

// runBoth simulates under NoFusion and the given config and checks the
// committed instruction counts agree.
func runBoth(t *testing.T, src string, cfg Config, maxInsts uint64) (*Stats, *Stats) {
	t.Helper()
	base := New(DefaultConfig(fusion.ModeNoFusion), streamFor(t, src, maxInsts))
	bst, err := base.RunChecked(32)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	p := New(cfg, streamFor(t, src, maxInsts))
	st, err := p.RunChecked(32)
	if err != nil {
		t.Fatalf("config run: %v", err)
	}
	if st.CommittedInsts != bst.CommittedInsts {
		t.Fatalf("committed %d vs baseline %d: fusion changed architecture",
			st.CommittedInsts, bst.CommittedInsts)
	}
	return st, bst
}

// Case: deadlock unfuse. The second load's base depends (through the
// catalyst) on the first load's result: the UCH discovers the same-line
// pair, the FP predicts it, and Rename must unfuse it every time.
func TestRepairDeadlockUnfuse(t *testing.T) {
	src := `
	.data
	.align 6
cell:
	.dword 0
	.text
_start:
	la s0, cell
	sd s0, 0(s0)     # the cell points at itself
	li s1, 4000
loop:
	ld t0, 0(s0)     # produces the next base
	andi t1, t0, 56
	add t2, t0, t1
	andi t3, t2, 7
	ld t4, 0(t0)     # base depends on the first load: deadlock if fused
	add s2, s2, t4
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.UnfuseReasons[fusion.UnfuseDeadlock] == 0 {
		t.Errorf("no deadlock unfuses recorded: %+v reasons=%v", st.UnfusedAtRename, st.UnfuseReasons)
	}
	if st.NCSFLoadPairs > 0 {
		t.Errorf("deadlocking pairs were committed fused: %d", st.NCSFLoadPairs)
	}
}

// Case: serializing instruction in the catalyst blocks fusion.
func TestRepairSerializingUnfuse(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 64
	.text
_start:
	la s0, buf
	li s1, 4000
loop:
	ld t0, 0(s0)
	add t1, t0, s1
	fence
	ld t2, 16(s0)    # same line, but a fence sits in the catalyst
	add s2, s2, t2
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.UnfuseReasons[fusion.UnfuseSerializing] == 0 {
		t.Errorf("no serializing unfuses recorded: reasons=%v", st.UnfuseReasons)
	}
	if st.NCSFLoadPairs > 0 {
		t.Errorf("pairs fused across a fence: %d", st.NCSFLoadPairs)
	}
}

// Case: store in the catalyst of a store pair blocks fusion. The extra
// store appears on every fourth iteration only, so the predictor trains
// on the clean iterations and must unfuse when the catalyst store shows up.
func TestRepairStoreInCatalystUnfuse(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 4096
other:
	.zero 64
	.text
_start:
	la s6, buf
	la s3, other
	li s1, 4000
	li s4, 0         # rotating line offset: cross-iteration pairs are
	li s7, 4032      # cross-line, so only the intra-iteration pair trains
loop:
	add s0, s6, s4
	sd s1, 0(s0)
	andi t0, s1, 3
	bnez t0, clean
	sd s1, 0(s3)     # dirty path: a store inside the catalyst
	j join
clean:
	add t1, s1, s1   # clean path: same catalyst length, no store
	j join
join:
	sd t1, 16(s0)    # pairs with the first store at a fixed distance
	addi s4, s4, 64
	and s4, s4, s7
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.UnfuseReasons[fusion.UnfuseStore] == 0 {
		t.Errorf("no store-in-catalyst unfuses recorded: reasons=%v", st.UnfuseReasons)
	}
	if st.NCSFStorePairs == 0 {
		t.Error("clean iterations should still fuse store pairs")
	}
}

// Case: a store pair whose catalyst rewrites the base register. The two
// stores share a line, so the UCH trains the pair, but between them the
// base register moves: the tail's base value is not the head's, and
// Rename must unfuse every prediction. The pair across iterations has
// its base recomputed in the catalyst too, so no store pair may fuse.
func TestRepairBaseRewriteUnfuse(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 4096
	.text
_start:
	la s6, buf
	li s1, 4000
	li s4, 0
	li s7, 4032
loop:
	add s0, s6, s4
	sd s1, 0(s0)
	addi s0, s0, 8   # the catalyst rewrites the base register
	sd s1, 0(s0)     # same line as the first store
	addi s4, s4, 64
	and s4, s4, s7
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.UnfuseReasons[fusion.UnfuseBaseRewrite] == 0 {
		t.Errorf("no base-rewrite unfuses recorded: reasons=%v", st.UnfuseReasons)
	}
	if n := st.CSFStorePairs + st.NCSFStorePairs; n > 0 {
		t.Errorf("%d store pairs fused across a base rewrite", n)
	}
}

// Case 5: region overflow at execute. Train the predictor on a distance
// whose addresses usually share a line but periodically span more than a
// line-sized region: each overflow must flush, reset confidence, and
// count as a fusion misprediction.
func TestRepairRegionOverflowMispredict(t *testing.T) {
	src := `
	.data
	.align 6
arr:
	.zero 16384
	.text
_start:
	la s0, arr
	li s1, 2500
	li s4, 0         # offset
loop:
	add t0, s0, s4
	ld t1, 0(t0)
	add t2, t1, s1
	ld t3, 40(t0)    # same line for offsets 0..24(mod 64), overflow otherwise
	add s2, s2, t3
	addi s4, s4, 16
	andi s4, s4, 2047
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.FusionMispredicts == 0 {
		t.Errorf("no fusion mispredictions despite periodic region overflows: %+v", st)
	}
	if st.Accuracy() > 0.999 {
		t.Errorf("accuracy %.4f should reflect the mispredicts", st.Accuracy())
	}
	if st.Flushes == 0 {
		t.Error("region overflows must flush the pipeline")
	}
}

// DBR load pairs: two pointers into the same line with different
// architectural base registers can only fuse through the predictor.
func TestDBRLoadPairsFuse(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 64
	.text
_start:
	la s0, buf
	addi s3, s0, 32  # second base register into the same line
	li s1, 4000
loop:
	ld t0, 0(s0)
	add t1, t0, s1
	ld t2, 0(s3)     # different base register, same cache line
	add s2, s2, t2
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.NCSFLoadPairs == 0 {
		t.Fatalf("no DBR pairs fused: %+v", st)
	}
	if st.DBRPairs == 0 {
		t.Error("fused pairs not classified as DBR")
	}
}

// Asymmetric pairs: differently sized accesses in one line.
func TestAsymmetricPairsFuse(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 64
	.text
_start:
	la s0, buf
	li s1, 4000
loop:
	ld t0, 0(s0)     # 8 bytes
	add t1, t0, s1
	lw t2, 16(s0)    # 4 bytes, same line
	add s2, s2, t2
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeHelios), 100_000)
	if st.NCSFLoadPairs == 0 {
		t.Fatalf("no pairs fused: %+v", st)
	}
	if st.AsymmetricPairs == 0 {
		t.Error("pairs not classified asymmetric")
	}
}

// The nesting limit: with MaxNCSFNest=1, interleaved pair opportunities
// must be partially dropped (NestLimitDrops > 0) without breaking anything.
func TestNestingLimitDrops(t *testing.T) {
	src := `
	.data
	.align 7
buf:
	.zero 128
	.text
_start:
	la s0, buf
	addi s3, s0, 64
	li s1, 4000
loop:
	ld t0, 0(s0)     # head A
	ld t1, 0(s3)     # head B (interleaved pair)
	add t2, t0, t1
	ld t3, 16(s0)    # tail A
	ld t4, 16(s3)    # tail B
	add s2, t3, t4
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	cfg := DefaultConfig(fusion.ModeHelios)
	cfg.MaxNCSFNest = 1
	st1, _ := runBoth(t, src, cfg, 100_000)
	cfg2 := DefaultConfig(fusion.ModeHelios)
	cfg2.MaxNCSFNest = 2
	st2, _ := runBoth(t, src, cfg2, 100_000)
	if st1.NestLimitDrops == 0 {
		t.Errorf("nest=1 should drop interleaved pairs: %+v", st1.NestLimitDrops)
	}
	if st2.NCSFPairs() <= st1.NCSFPairs() {
		t.Errorf("nest=2 (%d pairs) should fuse more than nest=1 (%d)",
			st2.NCSFPairs(), st1.NCSFPairs())
	}
}

// Probabilistic confidence counters (Riley & Zilles) emulate wider
// counters: entries both earn and lose trust more slowly. On a workload
// whose pair distance is stable, the predictor still reaches full
// coverage (the precise hysteresis contract is unit-tested in
// internal/helios).
func TestProbabilisticCountersStillConverge(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 64
	.text
_start:
	la s0, buf
	li s1, 4000
loop:
	ld t0, 0(s0)
	add t1, t0, s1
	ld t2, 16(s0)
	add s2, s2, t2
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	prob := DefaultConfig(fusion.ModeHelios)
	prob.FP = helios.FPConfig{ProbShift: 3}
	st, _ := runBoth(t, src, prob, 100_000)
	if st.NCSFLoadPairs == 0 {
		t.Fatalf("probabilistic FP never converged: %+v", st)
	}
}

// Small UCH finds fewer distant pairs.
func TestUCHSizeAblation(t *testing.T) {
	src := `
	.data
	.align 6
a0buf:
	.zero 64
b0buf:
	.zero 64
c0buf:
	.zero 64
	.text
_start:
	la s0, a0buf
	la s3, b0buf
	la s5, c0buf
	li s1, 4000
loop:
	ld t0, 0(s0)
	ld t1, 0(s3)
	ld t2, 0(s5)
	add t3, t0, t1
	ld t4, 16(s0)    # pairs with the first load, 3 loads back
	ld t5, 16(s3)
	ld t6, 16(s5)
	add s2, t4, t5
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	small := DefaultConfig(fusion.ModeHelios)
	small.UCHLoadEntries = 1
	stSmall, _ := runBoth(t, src, small, 120_000)
	full := DefaultConfig(fusion.ModeHelios)
	stFull, _ := runBoth(t, src, full, 120_000)
	if stFull.NCSFPairs() <= stSmall.NCSFPairs() {
		t.Errorf("6-entry UCH (%d pairs) should discover more than 1-entry (%d)",
			stFull.NCSFPairs(), stSmall.NCSFPairs())
	}
}

// Line-crossing pairs: contiguous accesses straddling a line boundary
// still fuse (two serialized accesses, Section II-B).
func TestLineCrossingPairs(t *testing.T) {
	src := `
	.data
	.align 6
buf:
	.zero 256
	.text
_start:
	la s0, buf
	addi s0, s0, 60  # the pair [60,76) straddles the line boundary
	li s1, 4000
loop:
	ld t0, 0(s0)
	ld t1, 8(s0)
	add s2, t0, t1
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st, _ := runBoth(t, src, DefaultConfig(fusion.ModeCSFSBR), 60_000)
	if st.CSFLoadPairs == 0 {
		t.Fatal("crossing pair did not fuse")
	}
	if st.LineCrossingPairs == 0 {
		t.Error("crossing accesses not counted")
	}
}
