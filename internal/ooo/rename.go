package ooo

import (
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/stats"
	"helios/internal/uop"
)

// renameDispatchStage models Rename and Dispatch: up to RenameWidth µ-ops
// per cycle leave the allocation queue, acquire physical registers and
// backend entries (ROB/IQ/LQ/SQ), stalling in order on the first exhausted
// resource. NCSF tail nucleii flow through here to validate or unfuse
// their pending NCSF'd µ-op (Section IV-B2), consuming dispatch slots.
//
// The stage also performs the top-down slot accounting (DESIGN.md §12):
// each of the DispatchWidth budget slots is attributed to exactly one
// bucket — claimed slots to (fused-)retiring, tagged on the µ-op for
// later reclassification; unclaimed slots to the stalling resource, the
// post-flush recovery, or the frontend. The behavioral loop is
// unchanged (it still processes up to RenameWidth µ-ops): accounting
// only clamps or pads to the DispatchWidth budget, it never alters
// timing.
func (p *Pipeline) renameDispatchStage() {
	td := &p.st.TopDown
	td.Cycles++
	budget := int(td.SlotsPerCycle)
	used := 0
	// account attributes one budget slot, tagging the µ-op (when there
	// is one) so squash/unfuse can move the slot later. When
	// RenameWidth exceeds DispatchWidth, work past the budget stays
	// unaccounted (tdBucket -1) — the budget is the accounting unit.
	account := func(u *pUop, b stats.TDBucket) {
		if used >= budget {
			return
		}
		used++
		td.Add(b, 1)
		if u != nil {
			u.tdBucket = int8(b)
		}
	}

	slots := p.cfg.RenameWidth
	stall := stallNone
loop:
	for slots > 0 {
		u := p.aq.front()
		if u == nil {
			break
		}
		switch {
		case u.headUop != nil:
			var bucket stats.TDBucket
			var consumed bool
			slots, bucket, consumed = p.processTailNucleus(u, slots)
			if consumed {
				account(nil, bucket)
				p.tdRecovering = false
			}
		default:
			var ok bool
			ok, stall = p.tryAllocate(u)
			if !ok {
				p.bumpStall(stall)
				break loop
			}
			u.renamedAt = p.cycle
			p.renameUop(u)
			p.dispatchUop(u)
			p.aq.pop()
			slots--
			if u.kind != uop.FuseNone && !u.unfused {
				account(u, stats.TDFusedRetiring)
			} else {
				account(u, stats.TDRetiring)
			}
			p.tdRecovering = false
		}
	}

	// Attribute the budget slots no µ-op claimed this cycle.
	if used < budget {
		leftover := uint64(budget - used)
		switch {
		case stall != stallNone:
			td.Add(p.tdStallBucket(stall), leftover)
		case p.aq.front() != nil:
			// Supply was available but RenameWidth ran out below the
			// dispatch budget: the core's own width is the limiter.
			td.Add(stats.TDBackendCore, leftover)
		case p.tdRecovering:
			// AQ empty because a flush killed it; the frontend is
			// refilling — squash recovery, not a frontend deficiency.
			td.Add(stats.TDBadSpeculation, leftover)
		case used > 0:
			td.Add(stats.TDFrontendBandwidth, leftover)
		default:
			td.Add(stats.TDFrontendLatency, leftover)
		}
	}

	if stall != stallNone {
		p.breakNCSFDeadlock()
	}
	p.renameStalled = stall != stallNone
}

// breakNCSFDeadlock resolves the circular wait that arises when a pending
// NCSF'd µ-op reaches the ROB head while the backend is full: the head
// cannot issue until its tail renames, the tail cannot rename until the
// backend drains, and the backend cannot drain past the head. The paper's
// configuration avoids this by sizing (ROB 352 >> max distance 64), but a
// robust implementation unfuses the blocking head, exactly as the other
// rename-time repair cases do.
func (p *Pipeline) breakNCSFDeadlock() {
	h := p.rob.front()
	if h == nil || !h.pending || h.st != stDispatched {
		return
	}
	p.rejectPair(h, fusion.UnfuseWindow)
}

// processTailNucleus handles a tail nucleus reaching Rename. It validates
// or unfuses the pending NCSF'd µ-op and returns the remaining slots,
// plus the top-down bucket of the consumed slot when one was consumed:
// validation retires fused work, an unfuse fix-up is repair for a wrong
// fusion speculation.
func (p *Pipeline) processTailNucleus(u *pUop, slots int) (int, stats.TDBucket, bool) {
	head := u.headUop
	if head == nil || head.gen != u.headGen ||
		head.st == stKilled || head.unfused || head.kind == uop.FuseNone {
		// The pairing was cancelled (nest limit, flush, a head already
		// committed+recycled after an unfuse, ...): the tail is an
		// ordinary µ-op again.
		u.headUop = nil
		return slots, 0, false
	}
	if head.st == stDecoded {
		// The head has not renamed yet (it is older so this only happens
		// transiently); treat the pair as cancelled to avoid deadlock.
		p.cancelNCSF(head, u)
		return slots, 0, false
	}

	if reason, unfuse := fusion.CheckCatalyst(p.span(head.r.Seq, u.r.Seq)); unfuse {
		p.rejectPair(head, reason)
		// The tail becomes an ordinary µ-op; the fix-up consumed a slot.
		u.headUop = nil
		return slots - 1, stats.TDBadSpeculation, true
	}

	// Validation: resolve the tail's sources with the *current* RAT (the
	// catalyst has renamed by now, so RaW hazards resolve correctly) and
	// perform the deferred tail destination rename.
	p.resolveTailSources(head, u)
	p.finishTailDest(head, u)
	head.pending = false
	p.removePendingNCSF(head)
	u.st = stKilled // the tail nucleus leaves the pipeline
	p.aq.pop()
	p.arena.release(u) // never dispatched: the AQ held the last reference
	return slots - 1, stats.TDFusedRetiring, true
}

// cancelNCSF reverts a speculative NCSF pairing before the head renamed.
func (p *Pipeline) cancelNCSF(head, tail *pUop) {
	head.kind = uop.FuseNone
	head.isNCSF = false
	head.pending = false
	if tail != nil {
		tail.headUop = nil
	}
}

// tryAllocate checks that every resource the µ-op needs is available and
// names the first blocking resource when it is not.
func (p *Pipeline) tryAllocate(u *pUop) (bool, stallKind) {
	if len(p.freeList) < p.destCount(u) {
		return false, stallFreeList
	}
	if p.rob.full() {
		return false, stallROB
	}
	if len(p.iq) >= p.cfg.IQSize {
		return false, stallIQ
	}
	if u.isLoad() && len(p.lq) >= p.cfg.LQSize {
		return false, stallLQ
	}
	if u.isStore() && len(p.sq) >= p.cfg.SQSize {
		return false, stallSQ
	}
	return true, stallNone
}

// destCount returns how many physical destination registers the µ-op
// needs.
func (p *Pipeline) destCount(u *pUop) int {
	n := 0
	if _, ok := uop.Dest(u.r.Inst); ok {
		n++
	}
	if u.kind != uop.FuseNone {
		if d, ok := uop.Dest(u.tail.Inst); ok {
			// Idiom fusion reuses the head's destination register.
			if !(u.kind == uop.FuseIdiom && u.r.Inst.Rd == d) {
				n++
			}
		}
	}
	return n
}

// renameUop resolves sources through the RAT and allocates destinations.
func (p *Pipeline) renameUop(u *pUop) {
	// NCSF heads beyond the nesting limit behave as unfused (paper): the
	// pairing is cancelled and the tail reverted when it arrives.
	if u.pending {
		if len(p.pendingNCSF) >= p.cfg.MaxNCSFNest {
			p.st.NestLimitDrops++
			p.cancelNCSF(u, nil) // the tail detects the broken link itself
		} else {
			p.pendingNCSF = append(p.pendingNCSF, u)
		}
	}

	// Collect architectural sources. The fixed-size buffer keeps this off
	// the heap: a µ-op carries at most 3 renamed sources (srcPhys), and
	// the one-past slot turns an impossible fourth into an index panic
	// exactly where the old slice version would have overrun srcPhys.
	var srcs [4]isa.Reg
	nSrcs := 0
	addSrc := func(r isa.Reg) {
		if r == isa.Zero {
			return
		}
		for _, s := range srcs[:nSrcs] {
			if s == r {
				return
			}
		}
		srcs[nSrcs] = r
		nSrcs++
	}
	in := u.r.Inst
	if in.Op.HasRs1() {
		addSrc(in.Rs1)
	}
	if in.Op.HasRs2() {
		addSrc(in.Rs2)
	}
	tailSrcSlots := 0
	if u.kind != uop.FuseNone {
		ti := u.tail.Inst
		switch {
		case u.kind == uop.FuseIdiom:
			// The intermediate register (head's rd) is internal.
			if ti.Op.HasRs1() && ti.Rs1 != in.Rd {
				addSrc(ti.Rs1)
			}
			if ti.Op.HasRs2() && ti.Rs2 != in.Rd {
				addSrc(ti.Rs2)
			}
		case u.pending:
			// Tail sources resolve at tail rename (RaW safety): reserve
			// slots.
			if ti.Op.HasRs1() && ti.Rs1 != isa.Zero {
				tailSrcSlots++
			}
			if ti.Op.HasRs2() && ti.Rs2 != isa.Zero {
				tailSrcSlots++
			}
		default:
			// Consecutive pair: the RAT is current for the tail too.
			if ti.Op.HasRs1() {
				addSrc(ti.Rs1)
			}
			if ti.Op.HasRs2() {
				addSrc(ti.Rs2)
			}
		}
	}

	u.numSrc = 0
	u.ownSrcs = int8(nSrcs)
	u.pendSrcs = 0
	for _, s := range srcs[:nSrcs] {
		preg := p.rat[s]
		slot := int(u.numSrc)
		u.srcPhys[slot] = preg
		u.numSrc++
		if !p.regReady[preg] {
			u.pendSrcs++
			p.waiters[preg] = append(p.waiters[preg], waiter{u: u, slot: slot, gen: u.gen})
		}
	}
	for i := 0; i < tailSrcSlots && int(u.numSrc) < len(u.srcPhys); i++ {
		u.srcPhys[u.numSrc] = srcPending
		u.numSrc++
	}

	// Destinations: head first, then tail (program order).
	u.numDst = 0
	if d, ok := uop.Dest(u.r.Inst); ok {
		p.allocDest(u, d, true)
	}
	if u.kind != uop.FuseNone {
		if d, ok := uop.Dest(u.tail.Inst); ok {
			if u.kind == uop.FuseIdiom && d == u.r.Inst.Rd && u.numDst > 0 {
				// Same register: one physical destination serves both.
			} else {
				p.allocDest(u, d, !u.pending)
			}
		}
	}
}

// allocDest allocates a physical register for arch register d. When
// updateRAT is false the mapping is deferred (NCSF tail destination, kept
// in the rename-side buffer until the tail nucleus renames).
func (p *Pipeline) allocDest(u *pUop, d isa.Reg, updateRAT bool) {
	preg := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	p.regReady[preg] = false
	p.waiters[preg] = p.waiters[preg][:0]
	slot := int(u.numDst)
	u.dstPhys[slot] = preg
	u.dstArch[slot] = uint8(d)
	u.oldPhys[slot] = p.rat[d]
	u.numDst++
	if updateRAT {
		p.rat[d] = preg
	}
}

// resolveTailSources fills the head's reserved source slots using the
// current RAT (tail rename time).
func (p *Pipeline) resolveTailSources(head, tail *pUop) {
	ti := tail.r.Inst
	var archSrcs []isa.Reg
	if ti.Op.HasRs1() && ti.Rs1 != isa.Zero {
		archSrcs = append(archSrcs, ti.Rs1)
	}
	if ti.Op.HasRs2() && ti.Rs2 != isa.Zero {
		archSrcs = append(archSrcs, ti.Rs2)
	}
	si := 0
	for slot := 0; slot < int(head.numSrc); slot++ {
		if head.srcPhys[slot] != srcPending {
			continue
		}
		if si >= len(archSrcs) {
			head.srcPhys[slot] = invalidReg
			continue
		}
		preg := p.rat[archSrcs[si]]
		si++
		head.srcPhys[slot] = preg
		if !p.regReady[preg] {
			head.pendSrcs++
			p.waiters[preg] = append(p.waiters[preg], waiter{u: head, slot: slot, gen: head.gen})
		}
	}
}

// finishTailDest performs the deferred RAT update for the tail nucleus's
// destination register (in-order destination renaming, Section IV-B2).
func (p *Pipeline) finishTailDest(head, tail *pUop) {
	if d, ok := uop.Dest(tail.r.Inst); ok && head.numDst > 1 {
		slot := int(head.numDst) - 1
		head.oldPhys[slot] = p.rat[d]
		p.rat[d] = head.dstPhys[slot]
	}
}

// rejectPair gives up a pending NCSF'd µ-op that rename cannot
// validate: it counts the reason and resets the FP entry that proposed
// the pair, which lets the predictor abandon a structurally illegal
// pairing and rediscover a legal partner through the UCH rather than
// re-proposing the same pair forever. The head then unfuses in place.
func (p *Pipeline) rejectPair(head *pUop, reason fusion.UnfuseReason) {
	p.st.UnfusedAtRename++
	p.st.UnfuseReasons[reason]++
	if p.predicted(head) {
		p.fp.Mispredict(head.tail.PC, head.predGhr, head.pred)
	}
	p.unfuseInPlace(head)
}

func (p *Pipeline) removePendingNCSF(head *pUop) {
	for i, h := range p.pendingNCSF {
		if h == head {
			//helios:hotalloc-ok in-place compaction into the same backing array; length only shrinks
			p.pendingNCSF = append(p.pendingNCSF[:i], p.pendingNCSF[i+1:]...)
			return
		}
	}
}

// dispatchUop inserts the renamed µ-op into the backend structures.
func (p *Pipeline) dispatchUop(u *pUop) {
	u.st = stDispatched
	p.rob.push(u)
	p.iq = append(p.iq, u)
	if u.isLoad() {
		p.lq = append(p.lq, u)
		if dep, ok := p.storeSets.DispatchLoad(u.r.PC); ok {
			u.waitStore = true
			u.waitStoreSeq = dep
		}
	}
	if u.isStore() {
		p.sq = append(p.sq, u)
		p.storeSets.DispatchStore(u.r.PC, u.r.Seq)
	}
}
