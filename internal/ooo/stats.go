package ooo

import (
	"helios/internal/fusion"
	"helios/internal/stats"
)

// Stats accumulates everything the evaluation needs: IPC inputs, per-kind
// fusion counts (Figures 2, 8), structural stall attribution (Figure 9),
// predictor quality inputs (Table III) and pair address categories
// (Figures 4, 5).
type Stats struct {
	Cycles         uint64
	CommittedUops  uint64 // µ-ops leaving the ROB (a fused pair is one µ-op)
	CommittedInsts uint64 // architectural instructions (a fused pair is two)
	CommittedMem   uint64 // architectural memory instructions

	// Fusion counts, committed.
	FusedIdiom      uint64 // non-memory Table I idioms
	FusedMemIdiom   uint64 // load-global / indexed-load (memory-carrying idioms)
	CSFLoadPairs    uint64
	CSFStorePairs   uint64
	NCSFLoadPairs   uint64
	NCSFStorePairs  uint64
	DBRPairs        uint64 // pairs with different architectural base registers
	AsymmetricPairs uint64
	PairsByCategory [6]uint64                       // uop.AddrCategory of committed pairs
	DistanceSum     uint64                          // head→tail distances of committed NCSF pairs
	UnfusedAtRename uint64                          // NCSF undone at rename, for any reason
	UnfuseReasons   [fusion.NumUnfuseReasons]uint64 // indexed by fusion.UnfuseReason
	NestLimitDrops  uint64                          // NCSF abandoned: nesting level saturated

	// Helios predictor quality.
	FusionPredictions uint64 // confident FP predictions acted upon
	FusionMispredicts uint64 // region check failed at execute (case 5)
	UCHMatches        uint64 // eligible pairs discovered at commit (missed fusions)
	FPTrainings       uint64

	// Control flow.
	Branches          uint64
	BranchMispredicts uint64

	// Memory.
	StoreSetViolations uint64
	STLForwards        uint64
	LineCrossingPairs  uint64

	// Structural stalls: cycles in which rename/dispatch could not process
	// a µ-op because of the named resource (attributed once per cycle to
	// the first blocking resource).
	StallFreeList uint64
	StallROB      uint64
	StallIQ       uint64
	StallLQ       uint64
	StallSQ       uint64
	StallAQ       uint64 // fetch blocked by allocation-queue backpressure

	Flushes      uint64
	ChaosFlushes uint64 // forced flushes injected by the chaos hook

	// Debug: cumulative decode-to-resolve latency of mispredicted branches.
	MispredictResolveLat uint64
	MispredictAQLat      uint64
	MispredictIssueLat   uint64

	// Top-down dispatch-slot accounting (DESIGN.md §12): every cycle,
	// all DispatchWidth slots land in exactly one bucket, so the
	// buckets sum to DispatchWidth × Cycles (CheckInvariants enforces
	// it) and an IPC delta decomposes fully into bucket deltas.
	TopDown stats.TopDown

	// Latency distributions (fixed integer buckets, observed at commit;
	// a manifest carries every bucket).
	IssueWaitHist     stats.Histogram // rename → issue wait per retired µ-op
	LoadToUseHist     stats.Histogram // issue → complete latency of retired loads
	FlushRecoveryHist stats.Histogram // flush → first subsequent commit
}

// IPC returns committed architectural instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.CommittedInsts) / float64(s.Cycles)
}

// TotalMemPairs returns all committed fused memory pairs.
func (s *Stats) TotalMemPairs() uint64 {
	return s.CSFLoadPairs + s.CSFStorePairs + s.NCSFLoadPairs + s.NCSFStorePairs
}

// CSFPairs returns committed consecutive pairs.
func (s *Stats) CSFPairs() uint64 { return s.CSFLoadPairs + s.CSFStorePairs }

// NCSFPairs returns committed non-consecutive pairs.
func (s *Stats) NCSFPairs() uint64 { return s.NCSFLoadPairs + s.NCSFStorePairs }

// FusedUopFraction returns the fraction of dynamic instructions that were
// part of a fused pair or idiom (Figure 2's metric).
func (s *Stats) FusedUopFraction() float64 {
	if s.CommittedInsts == 0 {
		return 0
	}
	fused := 2 * (s.TotalMemPairs() + s.FusedIdiom + s.FusedMemIdiom)
	return float64(fused) / float64(s.CommittedInsts)
}

// Coverage returns the fraction of predictable pairs the Helios FP
// actually fused: correct predictions over correct predictions plus the
// pairs that still reached Commit unfused (UCH matches).
func (s *Stats) Coverage() float64 {
	correct := s.FusionPredictions - s.FusionMispredicts
	denom := correct + s.UCHMatches
	if denom == 0 {
		return 0
	}
	return float64(correct) / float64(denom)
}

// Accuracy returns the fraction of acted-upon predictions that were
// correct.
func (s *Stats) Accuracy() float64 {
	if s.FusionPredictions == 0 {
		return 1
	}
	return float64(s.FusionPredictions-s.FusionMispredicts) / float64(s.FusionPredictions)
}

// FusionMPKI returns fusion mispredictions per kilo-instruction.
func (s *Stats) FusionMPKI() float64 {
	if s.CommittedInsts == 0 {
		return 0
	}
	return 1000 * float64(s.FusionMispredicts) / float64(s.CommittedInsts)
}

// BranchMPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) BranchMPKI() float64 {
	if s.CommittedInsts == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts) / float64(s.CommittedInsts)
}

// MeanNCSFDistance returns the mean head→tail distance of committed
// non-consecutive pairs.
func (s *Stats) MeanNCSFDistance() float64 {
	n := s.NCSFPairs()
	if n == 0 {
		return 0
	}
	return float64(s.DistanceSum) / float64(n)
}

// StallCycles returns total structural stall cycles by resource. The
// family is attributed once per cycle (rename charges its first
// blocking resource; fetch charges the AQ only when rename did not
// stall), so the sum never exceeds Cycles.
func (s *Stats) StallCycles() uint64 {
	return s.StallFreeList + s.StallROB + s.StallIQ + s.StallLQ + s.StallSQ + s.StallAQ
}
