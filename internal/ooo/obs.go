package ooo

import (
	"helios/internal/obs"
	"helios/internal/uop"
)

// obsEmit builds the observability event for a retiring or squashed
// µ-op and hands it to the observer. Only reached behind a p.obs nil
// check, so the disabled hot path never sees the Event construction or
// the disassembly lookup.
//
// Stage-cycle mapping: the model decodes in the cycle it fetches and
// dispatches in the cycle it renames (AQ and ROB insertion are the
// respective stage exits), so fetch==decode and rename==dispatch in the
// O3PipeView output; unreached stages stay 0.
//
//helios:hotalloc-ok obs-enabled path only, always behind a p.obs nil check; the disabled path is pinned alloc-free by TestCommitObsOffNoAllocs
func (p *Pipeline) obsEmit(u *pUop, retired bool) {
	ev := obs.Event{
		Seq:          u.r.Seq,
		PC:           u.r.PC,
		Disasm:       p.obs.Disasm(u.r.PC, u.r.Inst),
		Fetch:        u.decodedAt,
		Decode:       u.decodedAt,
		Rename:       u.renamedAt,
		Dispatch:     u.renamedAt,
		Issue:        u.issuedAt,
		Complete:     u.completeAt,
		Mispredicted: u.mispredicted,
	}
	if u.kind != uop.FuseNone {
		ev.Fused = u.kind.String()
		ev.TailSeq = u.tail.Seq
		ev.TailPC = u.tail.PC
		ev.PairDistance = u.pair.Distance
		ev.PairCategory = u.pair.Category.String()
		ev.Predicted = p.predicted(u)
		ev.Unfused = u.unfused
	}
	if retired {
		ev.Retire = p.cycle
		p.obs.Retire(&ev)
		return
	}
	ev.Squashed = true
	ev.SquashCycle = p.cycle
	p.obs.Squash(&ev)
}

// obsSample snapshots the cumulative engine counters for the interval
// sampler. The observer differences consecutive snapshots into rates.
func (p *Pipeline) obsSample() {
	c := p.mem.Counters()
	p.obs.Sample(obs.IntervalStats{
		Cycle:             p.cycle,
		Insts:             p.st.CommittedInsts,
		Uops:              p.st.CommittedUops,
		MemPairs:          p.st.TotalMemPairs(),
		Idioms:            p.st.FusedIdiom + p.st.FusedMemIdiom,
		FusionPredictions: p.st.FusionPredictions,
		FusionMispredicts: p.st.FusionMispredicts,
		Branches:          p.st.Branches,
		BranchMispredicts: p.st.BranchMispredicts,
		BTBMisses:         p.btb.Misses,
		L1DMisses:         c.L1DMisses,
		L2Misses:          c.L2Misses,
		LLCMisses:         c.LLCMisses,
		Flushes:           p.st.Flushes,
		ROBOcc:            uint64(p.rob.len()),
		IQOcc:             uint64(len(p.iq)),
		LQOcc:             uint64(len(p.lq)),
		SQOcc:             uint64(len(p.sq)),
		AQOcc:             uint64(p.aq.len()),
		TDRetiring:        p.st.TopDown.Retiring,
		TDFusedRetiring:   p.st.TopDown.FusedRetiring,
		TDFrontendLat:     p.st.TopDown.FrontendLatency,
		TDFrontendBW:      p.st.TopDown.FrontendBandwidth,
		TDBadSpec:         p.st.TopDown.BadSpeculation,
		TDBackendCore:     p.st.TopDown.BackendCore,
		TDBackendMem:      p.st.TopDown.BackendMemory(),
	})
}
