package stats

import (
	"strings"
	"testing"
)

func TestTopDownConservation(t *testing.T) {
	td := TopDown{SlotsPerCycle: 5}
	// Three accounted cycles: full retire, mixed, fully stalled.
	td.Cycles++
	td.Add(TDRetiring, 5)
	td.Cycles++
	td.Add(TDFusedRetiring, 2)
	td.Add(TDFrontendBandwidth, 3)
	td.Cycles++
	td.Add(TDBackendMemDRAM, 5)
	if err := td.CheckConservation(); err != nil {
		t.Fatalf("conserved account rejected: %v", err)
	}
	if got, want := td.TotalSlots(), uint64(15); got != want {
		t.Errorf("TotalSlots = %d, want %d", got, want)
	}
	if got, want := td.SlotBudget(), uint64(15); got != want {
		t.Errorf("SlotBudget = %d, want %d", got, want)
	}
}

func TestTopDownMovePreservesSum(t *testing.T) {
	td := TopDown{SlotsPerCycle: 4, Cycles: 1}
	td.Add(TDFusedRetiring, 4)
	td.Move(TDFusedRetiring, TDRetiring, 1)
	td.Move(TDRetiring, TDBadSpeculation, 1)
	if err := td.CheckConservation(); err != nil {
		t.Fatalf("moves broke conservation: %v", err)
	}
	if td.FusedRetiring != 3 || td.Retiring != 0 || td.BadSpeculation != 1 {
		t.Errorf("after moves: fused=%d retiring=%d badspec=%d, want 3/0/1",
			td.FusedRetiring, td.Retiring, td.BadSpeculation)
	}
}

func TestTopDownConservationViolations(t *testing.T) {
	lost := TopDown{SlotsPerCycle: 5, Cycles: 2}
	lost.Add(TDRetiring, 9) // one slot short of the 10-slot budget
	if err := lost.CheckConservation(); err == nil {
		t.Error("lost slot not detected")
	}
	under := TopDown{SlotsPerCycle: 5, Cycles: 2, Retiring: 10}
	under.Move(TDBadSpeculation, TDRetiring, 1) // underflows BadSpeculation
	if err := under.CheckConservation(); err == nil {
		t.Error("underflowed Move not detected")
	} else if !strings.Contains(err.Error(), "underflowed") {
		t.Errorf("underflow error lacks per-bucket diagnosis: %v", err)
	}
}

func TestTDBucketString(t *testing.T) {
	if TDRetiring.String() != "retiring" || TDBackendMemDRAM.String() != "backend_mem_dram" {
		t.Errorf("bucket names drifted: %v, %v", TDRetiring, TDBackendMemDRAM)
	}
	if got := TDBucket(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range bucket renders %q", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := uint64(0); v < 100; v++ {
		a.Observe(v)
	}
	for v := uint64(1000); v < 1050; v++ {
		b.Observe(v)
	}
	want := a // merged result must equal observing both sample sets
	for v := uint64(1000); v < 1050; v++ {
		want.Observe(v)
	}
	if err := a.Merge(&b); err != nil {
		t.Fatalf("merge of consistent histograms failed: %v", err)
	}
	if a != want {
		t.Errorf("merge result differs from observing the union of samples")
	}
	if a.Percentile(99) < b.Percentile(50) {
		t.Errorf("merged tail p99=%d below source p50=%d", a.Percentile(99), b.Percentile(50))
	}
}

func TestHistogramMergeRejectsMismatch(t *testing.T) {
	var good, bad Histogram
	good.Observe(3)
	bad.Count = 7 // bucket counts (all zero) disagree with Count
	if err := good.Merge(&bad); err == nil {
		t.Fatal("merge accepted an inconsistent source histogram")
	}
	if good.Count != 1 {
		t.Errorf("failed merge mutated the target (Count=%d)", good.Count)
	}
	if err := bad.Merge(&good); err == nil {
		t.Fatal("merge accepted an inconsistent target histogram")
	}
	var empty Histogram
	if err := empty.Merge(&good); err != nil {
		t.Errorf("merging into the zero value failed: %v", err)
	}
}
