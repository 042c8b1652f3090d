package ooo

import "helios/internal/uop"

// commitStage retires completed µ-ops in order, up to CommitWidth per
// cycle. Fused µ-ops form extended commit groups: a fused head may only
// start committing when its whole catalyst and tail are complete, which
// guarantees the head can still be unfused or flushed if anything inside
// the group misbehaves (Section IV-B3). Committing µ-ops train the Helios
// UCH/FP and update the committed register state used for flush recovery.
//
//helios:hotpath commit-side per-cycle loop; must stay allocation-free (DESIGN.md §13)
func (p *Pipeline) commitStage() {
	for i := 0; i < p.cfg.CommitWidth; i++ {
		u := p.rob.front()
		if u == nil || u.st != stCompleted {
			return
		}
		if u.isStore() && !u.committedSt {
			// Stores retire into the store buffer; the SQ entry is
			// reclaimed when the drain completes.
			u.committedSt = true
		}
		if u.isNCSF && !u.unfused && !p.extendedGroupComplete(u) {
			return
		}
		p.rob.pop()
		u.st = stCommitted
		if u.isLoad() {
			p.releaseLQ(u)
		}
		p.commitWrites(u)
		p.accountCommit(u)
		p.trainHelios(u)
		p.pruneWindow(u.r.Seq)
		if !u.isStore() {
			// Commit is a non-store µ-op's last pipeline reference (any
			// stale waiter or event-wheel entry is generation-checked);
			// stores stay referenced by the SQ until the drain completes.
			p.arena.release(u)
		}
	}
}

// extendedGroupComplete checks that every ROB entry up to the tail
// nucleus's position is complete.
func (p *Pipeline) extendedGroupComplete(head *pUop) bool {
	tailSeq := head.tail.Seq
	for i := 1; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		if e.r.Seq > tailSeq {
			break
		}
		if e.st != stCompleted {
			return false
		}
	}
	return true
}

// commitWrites applies the µ-op's register writes to the committed state,
// freeing superseded physical registers. Writes are ordered by their
// architectural position: the tail nucleus's write sits at the tail's
// sequence number, younger than the whole catalyst, even though it is
// carried by the head's ROB entry.
func (p *Pipeline) commitWrites(u *pUop) {
	for i := 0; i < int(u.numDst); i++ {
		preg := u.dstPhys[i]
		if preg < 0 {
			continue
		}
		arch := u.dstArch[i]
		seqW := int64(u.r.Seq)
		if i > 0 {
			seqW = int64(u.tail.Seq) // only a fused µ-op has a second dest
		}
		if seqW > p.lastWriter[arch] {
			old := p.cRAT[arch]
			p.cRAT[arch] = preg
			p.lastWriter[arch] = seqW
			if old >= 0 && old != preg {
				p.freePhys(old)
			}
		} else {
			// Superseded before becoming architectural (a catalyst write
			// committing after the fused group claimed the register).
			p.freePhys(preg)
		}
	}
}

// releaseLQ reclaims the committing load's LQ entry (loads commit in
// order, so it is normally the front).
func (p *Pipeline) releaseLQ(u *pUop) {
	for i, l := range p.lq {
		if l == u {
			//helios:hotalloc-ok in-place compaction into the same backing array; length only shrinks
			p.lq = append(p.lq[:i], p.lq[i+1:]...)
			return
		}
	}
}

func (p *Pipeline) freePhys(preg int32) {
	p.regReady[preg] = true
	p.waiters[preg] = p.waiters[preg][:0]
	//helios:hotalloc-ok free list is pre-sized to the physical register file; a freed preg always fits the vacated capacity
	p.freeList = append(p.freeList, preg)
}

// accountCommit updates the statistics for one retiring µ-op.
func (p *Pipeline) accountCommit(u *pUop) {
	p.recentCommits[p.recentCount%uint64(len(p.recentCommits))] = u.r.Seq
	p.recentCount++
	p.st.CommittedUops++
	p.st.CommittedInsts += u.archInstCount()
	if u.issuedAt >= u.renamedAt {
		p.st.IssueWaitHist.Observe(u.issuedAt - u.renamedAt)
	}
	if u.isLoad() && u.completeAt >= u.issuedAt {
		p.st.LoadToUseHist.Observe(u.completeAt - u.issuedAt)
	}
	if p.flushPending {
		p.flushPending = false
		p.st.FlushRecoveryHist.Observe(p.cycle - p.flushedAt)
	}
	if p.obs != nil {
		p.obsEmit(u, true)
	}
	if u.r.MemSize != 0 {
		p.st.CommittedMem++
	}
	if u.archInstCount() == 2 && u.tail.MemSize != 0 {
		p.st.CommittedMem++
	}
	if u.unfused || u.kind == uop.FuseNone {
		return
	}
	switch u.kind {
	case uop.FuseIdiom:
		if u.tail.MemSize != 0 {
			p.st.FusedMemIdiom++
		} else {
			p.st.FusedIdiom++
		}
	case uop.FuseLoadPair, uop.FuseStorePair:
		consecutive := u.pair.Consecutive()
		switch {
		case u.kind == uop.FuseLoadPair && consecutive:
			p.st.CSFLoadPairs++
		case u.kind == uop.FuseLoadPair:
			p.st.NCSFLoadPairs++
		case consecutive:
			p.st.CSFStorePairs++
		default:
			p.st.NCSFStorePairs++
		}
		if !consecutive {
			p.st.DistanceSum += uint64(u.pair.Distance)
		}
		if !u.pair.SameBase {
			p.st.DBRPairs++
		}
		if !u.pair.Symmetric {
			p.st.AsymmetricPairs++
		}
		p.st.PairsByCategory[u.pair.Category]++
	}
}

// trainHelios performs the Commit-stage work of the Helios predictor:
// unfused memory µ-ops search/insert the UCH; a match means an eligible
// pair went unfused, which trains the FP with the observed distance.
func (p *Pipeline) trainHelios(u *pUop) {
	if p.uch == nil {
		return
	}
	lineSize := p.cfg.PairCfg.LineSize
	fusedPair := u.kind.IsMemory() && !u.unfused
	switch {
	case fusedPair && u.kind == uop.FuseStorePair:
		// A fused store still orders against later stores: the previous
		// "last unfused store" must not pair across it.
		p.uch.InvalidateStore()
	case fusedPair:
		// Fused loads are not eligible for further fusion: not inserted.
	case u.isStore():
		if d, found := p.uch.ObserveStore(u.r.EA/lineSize, u.r.Seq); found {
			p.st.UCHMatches++
			p.fp.Train(u.r.PC, u.ghr, d)
			p.st.FPTrainings++
		}
	case u.isLoad() && (u.kind == uop.FuseNone || u.unfused):
		if d, found := p.uch.ObserveLoad(u.r.EA/lineSize, u.r.Seq); found {
			p.st.UCHMatches++
			p.fp.Train(u.r.PC, u.ghr, d)
			p.st.FPTrainings++
		}
	}
}
