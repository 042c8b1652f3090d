package stats

import "fmt"

// TDBucket identifies one top-down slot bucket. The decomposition is
// TMA-style: every dispatch slot of every cycle belongs to exactly one
// bucket, so the buckets sum to DispatchWidth × cycles and any IPC
// difference between two runs is fully explained by bucket movement.
type TDBucket uint8

const (
	// TDRetiring: the slot dispatched a µ-op that (eventually) retired
	// as a single architectural instruction.
	TDRetiring TDBucket = iota
	// TDFusedRetiring: the slot dispatched a fused µ-op carrying two
	// architectural instructions (or paid a fusion fix-up that retired
	// useful work) — the paper's win shows up as slots moving here.
	TDFusedRetiring
	// TDFrontendLatency: no µ-op was available and none dispatched this
	// cycle (i-cache miss, mispredict fetch stall, empty AQ).
	TDFrontendLatency
	// TDFrontendBandwidth: the frontend supplied some µ-ops this cycle
	// but fewer than the dispatch width.
	TDFrontendBandwidth
	// TDBadSpeculation: the slot's work was squashed by a flush, or the
	// slot idled while the frontend refilled after one (recovery).
	TDBadSpeculation
	// TDBackendCore: dispatch blocked on a non-memory backend resource
	// (free list, ROB, IQ) or the core's own rename width.
	TDBackendCore
	// TDBackendMemL1D..TDBackendMemDRAM: dispatch blocked on LQ/SQ
	// pressure, classified by the hierarchy level serving the oldest
	// in-flight blocking access.
	TDBackendMemL1D
	TDBackendMemL2
	TDBackendMemLLC
	TDBackendMemDRAM

	NumTDBuckets
)

var tdNames = [NumTDBuckets]string{
	"retiring", "fused_retiring", "frontend_latency", "frontend_bandwidth",
	"bad_speculation", "backend_core", "backend_mem_l1d", "backend_mem_l2",
	"backend_mem_llc", "backend_mem_dram",
}

func (b TDBucket) String() string {
	if b < NumTDBuckets {
		return tdNames[b]
	}
	return fmt.Sprintf("TDBucket(%d)", uint8(b))
}

// TopDown is the per-cycle dispatch-slot account: SlotsPerCycle slots
// are attributed every cycle, one bucket each, as pure integer counters.
// The conservation invariant — the buckets sum to SlotsPerCycle ×
// Cycles — is what makes the decomposition trustworthy: a slot can be
// misclassified but never lost or double-counted, and CheckConservation
// turns any accounting bug into a loud failure.
type TopDown struct {
	SlotsPerCycle uint64 // dispatch width: the per-cycle slot budget
	Cycles        uint64 // cycles accounted

	Retiring          uint64
	FusedRetiring     uint64
	FrontendLatency   uint64
	FrontendBandwidth uint64
	BadSpeculation    uint64
	BackendCore       uint64
	BackendMemL1D     uint64
	BackendMemL2      uint64
	BackendMemLLC     uint64
	BackendMemDRAM    uint64
}

// bucket returns the counter for b. Out-of-range values cannot occur
// from in-package callers (they use the constants); mapping them to the
// last bucket keeps conservation intact rather than panicking.
func (t *TopDown) bucket(b TDBucket) *uint64 {
	switch b {
	case TDRetiring:
		return &t.Retiring
	case TDFusedRetiring:
		return &t.FusedRetiring
	case TDFrontendLatency:
		return &t.FrontendLatency
	case TDFrontendBandwidth:
		return &t.FrontendBandwidth
	case TDBadSpeculation:
		return &t.BadSpeculation
	case TDBackendCore:
		return &t.BackendCore
	case TDBackendMemL1D:
		return &t.BackendMemL1D
	case TDBackendMemL2:
		return &t.BackendMemL2
	case TDBackendMemLLC:
		return &t.BackendMemLLC
	}
	return &t.BackendMemDRAM
}

// Add attributes n slots to bucket b.
func (t *TopDown) Add(b TDBucket, n uint64) { *t.bucket(b) += n }

// Move reclassifies n slots from one bucket to another (squash moves a
// dispatched slot to bad-speculation; unfuse moves fused-retiring to
// retiring). The sum is preserved by construction; moving more slots
// than `from` holds wraps the counter, which CheckConservation's
// per-bucket bound then reports instead of silently absorbing.
func (t *TopDown) Move(from, to TDBucket, n uint64) {
	*t.bucket(from) -= n
	*t.bucket(to) += n
}

// TotalSlots sums every bucket.
func (t *TopDown) TotalSlots() uint64 {
	return t.Retiring + t.FusedRetiring + t.FrontendLatency + t.FrontendBandwidth +
		t.BadSpeculation + t.BackendCore + t.BackendMemory()
}

// BackendMemory sums the four memory-level buckets.
func (t *TopDown) BackendMemory() uint64 {
	return t.BackendMemL1D + t.BackendMemL2 + t.BackendMemLLC + t.BackendMemDRAM
}

// SlotBudget is the total slots the accounted cycles offered.
func (t *TopDown) SlotBudget() uint64 { return t.SlotsPerCycle * t.Cycles }

// CheckConservation verifies the slot-conservation invariant: every
// bucket within the budget (an underflowed Move shows up here as a
// near-2^64 count) and the bucket sum exactly equal to it.
func (t *TopDown) CheckConservation() error {
	budget := t.SlotBudget()
	for b := TDBucket(0); b < NumTDBuckets; b++ {
		if v := *t.bucket(b); v > budget {
			return fmt.Errorf("top-down bucket %v holds %d slots, budget is %d (underflowed Move?)", b, v, budget)
		}
	}
	if got := t.TotalSlots(); got != budget {
		return fmt.Errorf("top-down slots not conserved: buckets sum to %d, want %d (%d slots × %d cycles)",
			got, budget, t.SlotsPerCycle, t.Cycles)
	}
	return nil
}
