package obs

import "strconv"

// IntervalStats is one cumulative snapshot of the engine counters the
// interval sampler tracks. The pipeline fills it at each sample
// boundary; the Observer differences consecutive snapshots so the CSV
// rows are per-interval rates. Counter fields are running totals;
// *Occ fields are instantaneous structure occupancies at the sample
// cycle. It is a plain value struct so building one allocates nothing.
type IntervalStats struct {
	Cycle uint64 // sample cycle (cumulative by construction)

	// Running totals, differenced per interval.
	Insts             uint64 // retired instructions
	Uops              uint64 // retired µ-ops
	MemPairs          uint64 // retired fused memory pairs (ldp+stp)
	Idioms            uint64 // retired fused ALU/branch idioms
	FusionPredictions uint64 // Helios FP pairings attempted
	FusionMispredicts uint64 // FP pairings undone before retire
	Branches          uint64 // retired branches
	BranchMispredicts uint64
	BTBMisses         uint64
	L1DMisses         uint64
	L2Misses          uint64
	LLCMisses         uint64
	Flushes           uint64 // pipeline flushes (mispredict + NCSF + chaos)

	// Instantaneous occupancies at the sample cycle.
	ROBOcc uint64
	IQOcc  uint64
	LQOcc  uint64
	SQOcc  uint64
	AQOcc  uint64

	// Top-down slot buckets (running totals; the four memory levels are
	// pre-summed into TDBackendMem for the time series). Their interval
	// deltas are rendered signed: squash/unfuse reclassification can
	// move slots out of a bucket between two samples.
	TDRetiring      uint64
	TDFusedRetiring uint64
	TDFrontendLat   uint64
	TDFrontendBW    uint64
	TDBadSpec       uint64
	TDBackendCore   uint64
	TDBackendMem    uint64
}

// intervalHeader is the CSV header line, in appendRow's column order.
const intervalHeader = "cycle,insts,ipc_milli,uops,mem_pairs,idioms," +
	"fp_predictions,fp_mispredicts,branches,branch_mispredicts," +
	"mpki_milli,btb_misses,l1d_misses,l2_misses,llc_misses," +
	"flushes,rob_occ,iq_occ,lq_occ,sq_occ,aq_occ," +
	"td_retiring,td_fused_retiring,td_frontend_lat,td_frontend_bw," +
	"td_bad_spec,td_backend_core,td_backend_mem\n"

// appendRow appends one CSV row of per-interval deltas against the
// previous snapshot (the zero value for the first interval). Derived
// rates stay integral: ipc_milli is retired instructions per kilocycle
// and mpki_milli is branch mispredicts per million instructions, both
// computed over this interval only.
func (s *IntervalStats) appendRow(b []byte, prev *IntervalStats) []byte {
	dCycles := s.Cycle - prev.Cycle
	dInsts := s.Insts - prev.Insts
	var ipcMilli, mpkiMilli uint64
	if dCycles > 0 {
		ipcMilli = dInsts * 1000 / dCycles
	}
	if dInsts > 0 {
		mpkiMilli = (s.BranchMispredicts - prev.BranchMispredicts) * 1000000 / dInsts
	}
	for _, v := range [...]uint64{
		s.Cycle,
		dInsts,
		ipcMilli,
		s.Uops - prev.Uops,
		s.MemPairs - prev.MemPairs,
		s.Idioms - prev.Idioms,
		s.FusionPredictions - prev.FusionPredictions,
		s.FusionMispredicts - prev.FusionMispredicts,
		s.Branches - prev.Branches,
		s.BranchMispredicts - prev.BranchMispredicts,
		mpkiMilli,
		s.BTBMisses - prev.BTBMisses,
		s.L1DMisses - prev.L1DMisses,
		s.L2Misses - prev.L2Misses,
		s.LLCMisses - prev.LLCMisses,
		s.Flushes - prev.Flushes,
		s.ROBOcc,
		s.IQOcc,
		s.LQOcc,
		s.SQOcc,
		s.AQOcc,
	} {
		b = append(strconv.AppendUint(b, v, 10), ',')
	}
	// Top-down deltas are signed: reclassification (squash, unfuse) can
	// shrink a cumulative bucket between samples, and an unsigned
	// rendering would print the wrapped difference.
	for _, d := range [...]uint64{
		s.TDRetiring - prev.TDRetiring,
		s.TDFusedRetiring - prev.TDFusedRetiring,
		s.TDFrontendLat - prev.TDFrontendLat,
		s.TDFrontendBW - prev.TDFrontendBW,
		s.TDBadSpec - prev.TDBadSpec,
		s.TDBackendCore - prev.TDBackendCore,
		s.TDBackendMem - prev.TDBackendMem,
	} {
		b = append(strconv.AppendInt(b, int64(d), 10), ',')
	}
	b[len(b)-1] = '\n'
	return b
}

// Sample ingests one cumulative snapshot and appends the interval CSV
// row (emitting the header before the first row). The pipeline calls
// this every SampleEvery cycles and once more at end of run so the
// final partial interval is not lost.
func (o *Observer) Sample(s IntervalStats) {
	if o.Metrics == nil || o.err != nil {
		return
	}
	if !o.wroteHeader {
		o.write(o.Metrics, append(o.buf[:0], intervalHeader...))
		if o.err != nil {
			return
		}
		o.wroteHeader = true
	}
	o.write(o.Metrics, s.appendRow(o.buf[:0], &o.prev))
	o.prev = s
}
