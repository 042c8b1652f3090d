package ooo

import (
	"helios/internal/isa"
	"helios/internal/uop"
)

// issueStage selects ready µ-ops oldest-first and sends them to the
// execution ports: ALUPorts for ALU/branch/mul/div, LoadPorts for loads
// (a fused load pair occupies a single port), StorePorts for stores.
//
//helios:hotpath issue-side per-cycle loop; must stay allocation-free (DESIGN.md §13)
func (p *Pipeline) issueStage() {
	p.resolveStoreAddresses()
	alu, ld, st := p.cfg.ALUPorts, p.cfg.LoadPorts, p.cfg.StorePorts
	// Iterate over a snapshot: issuing a µ-op can trigger a flush (fusion
	// misprediction) that rewrites the IQ underneath us.
	//helios:hotalloc-ok scratch snapshot reused every cycle; capacity reaches the IQ size once, then stays
	p.iqScratch = append(p.iqScratch[:0], p.iq...)
	for _, u := range p.iqScratch {
		if alu == 0 && ld == 0 && st == 0 {
			break
		}
		// The cheap not-ready rejects are inlined ahead of the canIssue
		// call: most IQ entries fail one of these two on any given cycle,
		// and both fields are re-read live (a flush or unfuse earlier in
		// this same scan can change them).
		if u.st != stDispatched || u.pendSrcs > 0 || !p.canIssue(u) {
			continue
		}
		var port *int
		switch {
		case u.isLoad():
			port = &ld
		case u.isStore():
			port = &st
		default:
			port = &alu
		}
		if *port == 0 {
			continue
		}
		*port--
		p.issue(u)
	}
	// Compact: keep only µ-ops still waiting to issue.
	n := 0
	for _, u := range p.iq {
		if u.st == stDispatched {
			p.iq[n] = u
			n++
		}
	}
	p.iq = p.iq[:n]
}

// resolveStoreAddresses models the separate store-address (STA) pipeline:
// a store's address becomes visible to memory disambiguation as soon as
// its base register is ready, independent of the store data. Violations
// are detected and the store-set LFST entry cleared at that point.
func (p *Pipeline) resolveStoreAddresses() {
	for _, s := range p.sq {
		if s.addrKnown || s.st != stDispatched {
			continue
		}
		if !p.storeAddrReady(s) {
			continue
		}
		lo, span := p.combinedRange(s)
		s.memLo, s.memSpan = lo, span
		s.addrKnown = true
		p.storeSets.CompleteStore(s.r.PC, s.r.Seq)
		p.checkViolations(s)
	}
}

// storeAddrReady reports whether the store's base register value is
// available (pending fused pairs wait for validation first).
func (p *Pipeline) storeAddrReady(s *pUop) bool {
	if s.pending {
		return false
	}
	if s.r.Inst.Rs1 == isa.Zero {
		return true
	}
	base := s.srcPhys[0]
	return base >= 0 && p.regReady[base]
}

// canIssue applies the scheduler wake-up conditions.
func (p *Pipeline) canIssue(u *pUop) bool {
	if u.st != stDispatched {
		return false
	}
	if u.pendSrcs > 0 {
		return false
	}
	if u.pending {
		return false // NCS Ready bit not set (Section IV-B2)
	}
	if u.r.Inst.Op.IsSerializing() && p.rob.front() != u {
		return false // fences/ecalls execute at ROB head only
	}
	if u.isLoad() && !p.loadMayIssue(u) {
		return false
	}
	return true
}

// loadMayIssue applies memory disambiguation: store-set predicted
// dependences and store-to-load conflicts with older stores. Each
// architectural access of a fused load pair is disambiguated against the
// stores older than *its own* position: the tail access must respect
// catalyst stores even though the fused µ-op sits at the head's position.
func (p *Pipeline) loadMayIssue(u *pUop) bool {
	lacc, ln := p.accesses(u)
	u.forwarded = false
	u.slowForward = false
	// Youngest architectural position of this load: stores at or past it
	// are skipped before their accesses are even decomposed (every inner
	// comparison below would reject them anyway).
	maxSeq := lacc[ln-1].seq
	if lacc[0].seq > maxSeq {
		maxSeq = lacc[0].seq
	}
	for _, s := range p.sq {
		if s.r.Seq >= maxSeq || s.drained || s.st == stKilled {
			continue
		}
		sacc, sn := p.accesses(s)
		for li := 0; li < ln; li++ {
			la := lacc[li]
			if s.r.Seq >= la.seq {
				continue // the whole store is younger than this access
			}
			if !s.addrKnown {
				// Unknown address: speculate unless the store-set
				// predictor named this store. Fused pairs are additionally
				// conservative about their *tail* access: it executes at
				// the head's position, so racing an unresolved catalyst
				// store would turn every such pair into a memory-order
				// violation; the hardware waits for the address instead.
				if u.waitStore && s.r.Seq == u.waitStoreSeq {
					return false
				}
				if li > 0 && s.r.Seq > u.r.Seq {
					// Catalyst store with an unresolved address: wait, the
					// tail access would otherwise race it.
					return false
				}
				continue
			}
			for si := 0; si < sn; si++ {
				sa := sacc[si]
				if sa.seq >= la.seq {
					continue // e.g. a store-pair tail younger than the load
				}
				if !rangesOverlap(sa.lo, sa.span, la.lo, la.span) {
					continue
				}
				if s.r.Seq > u.r.Seq {
					// A catalyst store overlaps the tail access: fusing
					// violated sequential semantics. Repair like case 7:
					// unfuse in place and flush from the tail nucleus.
					p.catalystConflict(u)
					return false
				}
				if s.st != stCompleted {
					return false // forwarding needs the store data
				}
				if sa.lo <= la.lo && sa.lo+sa.span >= la.lo+la.span {
					// Fully covered: store-to-load forwarding.
					u.forwarded = true
					continue
				}
				// Partial overlap: the load replays and merges
				// store-buffer bytes with cache data, at a penalty.
				u.slowForward = true
			}
		}
	}
	return true
}

func rangesOverlap(lo1, span1, lo2, span2 uint64) bool {
	return lo1 < lo2+span2 && lo2 < lo1+span1
}

// combinedRange returns the byte range the µ-op accesses (both nucleii
// for a fused pair).
func (p *Pipeline) combinedRange(u *pUop) (lo, span uint64) {
	ea1, sz1, ea2, sz2, pair := u.memRecords()
	if !pair {
		return ea1, uint64(sz1)
	}
	return uop.CombinedRange(ea1, sz1, ea2, sz2)
}

// access is one architectural memory access carried by a µ-op; fused pairs
// carry two with distinct sequence numbers, which is what the paper's
// LQ/SQ entries encode with the second-access offset/size fields.
type access struct {
	lo   uint64
	span uint64
	seq  uint64
}

// accesses decomposes the µ-op into its architectural accesses.
func (p *Pipeline) accesses(u *pUop) (out [2]access, n int) {
	ea1, sz1, ea2, sz2, pair := u.memRecords()

	out[0] = access{lo: ea1, span: uint64(sz1), seq: u.r.Seq}
	n = 1
	if u.kind == uop.FuseIdiom {
		out[0].seq = u.tail.Seq // the memory op is the idiom's tail
	}
	if pair {
		out[1] = access{lo: ea2, span: uint64(sz2), seq: u.tail.Seq}
		n = 2
	}
	return out, n
}

// issue sends the µ-op to execution, computing its completion time.
func (p *Pipeline) issue(u *pUop) {
	// Region check for predictively fused pairs (repair case 5): the two
	// accesses span more than a cache-line-sized region, which the
	// hardware only discovers once both addresses are computed.
	if u.kind.IsMemory() && !u.unfused && u.isNCSF && !u.pair.Category.Fuseable() {
		p.handleFusionMispredict(u)
		// Fall through: the head issues as a single access below.
	}

	lat := p.cfg.ALULatency
	switch {
	case u.isLoad():
		lo, span := p.combinedRange(u)
		u.memLo, u.memSpan = lo, span
		u.addrKnown = true
		switch {
		case u.slowForward:
			// Replay: merge store-buffer bytes with the cache line.
			lat = p.mem.DataLatency(lo, span, p.cycle)
			u.memLevel = p.classifyMemLevel(lat) // before the merge penalty
			lat += 4
			p.st.STLForwards++
		case u.forwarded:
			lat = p.cfg.Cache.L1D.Latency // forwarded from the store buffer
			u.memLevel = memL1D
			p.st.STLForwards++
		default:
			lat = p.mem.DataLatency(lo, span, p.cycle)
			u.memLevel = p.classifyMemLevel(lat)
		}
		if u.kind.IsMemory() && !u.unfused && uop.CrossesLine(lo, span, p.cfg.PairCfg.LineSize) {
			p.st.LineCrossingPairs++
		}
	case u.isStore():
		lo, span := p.combinedRange(u)
		u.memLo, u.memSpan = lo, span
		u.addrKnown = true
		lat = 1 // address generation; the cache access happens at drain
	default:
		switch u.r.Inst.Op.Class() {
		case isa.ClassMul:
			lat = p.cfg.MulLatency
		case isa.ClassDiv:
			lat = p.cfg.DivLatency
		}
	}
	u.st = stIssued
	u.issuedAt = p.cycle
	u.completeAt = p.cycle + uint64(lat)
	p.events.schedule(u, u.completeAt, p.cycle)
}

// writebackStage completes µ-ops whose execution latency elapsed: results
// become visible, dependents wake up, mispredicted branches redirect the
// frontend, and stores search for memory-order violations.
//
//helios:hotpath writeback per-cycle loop; must stay allocation-free (DESIGN.md §13)
func (p *Pipeline) writebackStage() {
	evs := p.events.drain(p.cycle)
	for _, e := range evs {
		u := e.u
		if u.gen != e.gen {
			continue // flushed, released and recycled while in flight
		}
		if u.st != stIssued {
			continue // killed by a flush while in flight
		}
		u.st = stCompleted

		for i := 0; i < int(u.numDst); i++ {
			preg := u.dstPhys[i]
			if preg < 0 {
				continue
			}
			p.wakeup(preg)
		}

		if u.mispredicted && p.fetchStalled && p.fetchHeldBy == u.r.Seq {
			p.fetchResumeAt = p.cycle + uint64(p.cfg.RedirectPenalty)
			p.st.MispredictResolveLat += p.cycle - u.decodedAt
			p.st.MispredictAQLat += u.renamedAt - u.decodedAt
			p.st.MispredictIssueLat += u.issuedAt - u.renamedAt
		}

		// Store violations and LFST release happen when the address
		// resolves (resolveStoreAddresses), which may precede execution.
	}
}

// wakeup marks a physical register ready and notifies waiting µ-ops.
func (p *Pipeline) wakeup(preg int32) {
	p.regReady[preg] = true
	ws := p.waiters[preg]
	p.waiters[preg] = ws[:0]
	for _, w := range ws {
		if w.gen != w.u.gen {
			continue // the waiter was released and recycled
		}
		if w.u.st == stKilled || w.u.st == stCommitted {
			continue
		}
		if w.slot >= len(w.u.srcPhys) || w.u.srcPhys[w.slot] != preg {
			continue // the slot was retracted (NCSF unfuse)
		}
		if w.u.pendSrcs > 0 {
			w.u.pendSrcs--
		}
	}
}

// checkViolations looks for younger loads that already executed and
// overlap the just-resolved store: a memory-order violation in TSO. Each
// architectural access is compared at its own position: the tail of a
// fused load pair is younger than its catalyst, so a catalyst store must
// fault it even though the pair's LQ entry sits at the head's position.
func (p *Pipeline) checkViolations(st *pUop) {
	sacc, sn := p.accesses(st)
	var offender *pUop
	for _, l := range p.lq {
		if !l.addrKnown || l.st == stKilled || l.st == stDispatched {
			continue
		}
		if l.forwarded {
			continue // served by an older (or this) store's exact data
		}
		lacc, ln := p.accesses(l)
		for li := 0; li < ln; li++ {
			la := lacc[li]
			for si := 0; si < sn; si++ {
				sa := sacc[si]
				if la.seq <= sa.seq {
					continue // the load access is older: no violation
				}
				if rangesOverlap(sa.lo, sa.span, la.lo, la.span) {
					if offender == nil || l.r.Seq < offender.r.Seq {
						offender = l
					}
				}
			}
		}
	}
	if offender == nil {
		return
	}
	p.st.StoreSetViolations++
	p.storeSets.Violation(offender.r.PC, st.r.PC)
	// Flush from the violating load and refetch (if the load is a fused
	// µ-op the whole pair re-executes).
	p.flushFrom(offender.r.Seq)
}

// catalystConflict repairs a fused load pair whose tail access overlaps a
// store inside the catalyst (a memory-dependence misprediction within the
// fused group, repair case 7): the pair is unfused in place and the
// pipeline flushes from the tail nucleus, which re-executes after the
// store as an ordinary load.
func (p *Pipeline) catalystConflict(u *pUop) {
	if u.unfused {
		return
	}
	p.st.StoreSetViolations++
	if p.predicted(u) {
		p.fp.Mispredict(u.tail.PC, u.predGhr, u.pred)
		p.st.FusionMispredicts++
	}
	tailSeq := u.tail.Seq
	p.unfuseInPlace(u)
	p.flushFrom(tailSeq)
}

// handleFusionMispredict implements repair case 5: the fused pair spans
// more than a cache-line-sized region. The head is unfused in place, the
// pipeline flushes from the tail nucleus's position (it must be
// re-fetched as an ordinary µ-op), and the FP entry's confidence resets.
func (p *Pipeline) handleFusionMispredict(u *pUop) {
	p.st.FusionMispredicts++
	if p.predicted(u) {
		p.fp.Mispredict(u.tail.PC, u.predGhr, u.pred)
	}
	tailSeq := u.tail.Seq
	p.unfuseInPlace(u)
	p.flushFrom(tailSeq)
}

// drainStores retires committed stores from the store buffer to the
// cache, in order (TSO). A store that hits in the L1 releases the drain
// port after one cycle; a write miss allocates the line and blocks the
// port until the fill returns (write-allocate), which is what makes
// store-streaming code SQ-bound (the paper's 657.xz case). SQ entries are
// only reclaimed when the drain completes.
//
//helios:hotpath store-drain per-cycle loop; must stay allocation-free (DESIGN.md §13)
func (p *Pipeline) drainStores() {
	started := 0
	n := 0
	for i, s := range p.sq {
		if s.st == stKilled {
			continue // dropped by a flush
		}
		keep := true
		switch {
		case s.drained:
			keep = false
		case s.draining:
			if p.cycle >= s.drainDoneAt {
				s.drained = true
				keep = false
			}
			// Drain completion is a store's last pipeline reference: the
			// ROB entry committed long ago, so the µ-op is recycled here.
		case s.committedSt && started < p.cfg.StoreDrainPerCycle && p.cycle >= p.drainPortFree:
			lat := p.mem.DataLatency(s.memLo, s.memSpan, p.cycle)
			s.memLevel = p.classifyMemLevel(lat)
			done := p.cycle + uint64(lat)
			if done <= p.lastDrainDone {
				done = p.lastDrainDone + 1 // TSO: drains complete in order
			}
			s.draining = true
			s.drainDoneAt = done
			p.lastDrainDone = done
			if lat <= p.cfg.Cache.L1D.Latency {
				p.drainPortFree = p.cycle + 1
			} else {
				p.drainPortFree = done // write miss blocks the port
			}
			started++
		default:
			// Older non-committed store: nothing younger may drain, and
			// (TSO: drains start in order) nothing younger can be draining
			// or drained either. If the scan has removed nothing so far
			// the queue is unchanged from here on — stop early.
			if n == i {
				return
			}
			started = p.cfg.StoreDrainPerCycle
		}
		if keep {
			p.sq[n] = s
			n++
		} else if s.st == stCommitted {
			// Only fully-committed stores are recycled; a store dropped
			// for any other reason is still owned by the flush path.
			p.arena.release(s)
		}
	}
	p.sq = p.sq[:n]
}
