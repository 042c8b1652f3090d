package fusion

import "helios/internal/trace"

// TraceStats tabulates the fusion potential of a committed instruction
// stream. It backs the motivation figures: Figure 4 (address categories
// of consecutive pairs) and Figure 5 (non-consecutive and
// different-base-register potential).
type TraceStats struct {
	TotalUops uint64

	// Figure 4: consecutive (distance 1) pairs by address category.
	CSFPairs      uint64
	CSFByCategory [6]uint64 // indexed by uop.AddrCategory

	// Figure 5: non-consecutive additions and base-register breakdown.
	NCSFPairs      uint64
	CSFDiffBase    uint64
	NCSFDiffBase   uint64
	NCSFAsymmetric uint64
	DistanceSum    uint64 // for the mean head-tail distance
}

// PairsTotal returns all pairs found (consecutive + non-consecutive).
func (s *TraceStats) PairsTotal() uint64 { return s.CSFPairs + s.NCSFPairs }

// MeanDistance returns the average head→tail distance in µ-ops.
func (s *TraceStats) MeanDistance() float64 {
	if s.PairsTotal() == 0 {
		return 0
	}
	return float64(s.DistanceSum) / float64(s.PairsTotal())
}

// AnalyzeTrace scans a recorded committed stream and computes its fusion
// potential. A Recording is complete by construction, so there is no
// error to report.
func AnalyzeTrace(rec *trace.Recording, cfg PairConfig) TraceStats {
	st := TraceStats{TotalUops: uint64(rec.Len())}
	oracle := NewOracle(cfg)
	recs := rec.Records()
	for i := range recs {
		p, ok := oracle.Observe(recs[:i+1])
		if !ok {
			continue
		}
		st.DistanceSum += uint64(p.Distance)
		if p.Consecutive() {
			st.CSFPairs++
			st.CSFByCategory[p.Category]++
			if !p.SameBase {
				st.CSFDiffBase++
			}
			continue
		}
		st.NCSFPairs++
		if !p.SameBase {
			st.NCSFDiffBase++
		}
		if !p.Symmetric {
			st.NCSFAsymmetric++
		}
	}
	return st
}
