package ooo

import (
	"context"
	"fmt"

	"helios/internal/uop"
)

// CheckInvariants validates the pipeline's internal consistency. It is
// exported for tests (and cheap enough to call between cycles in debug
// runs): structure occupancies within capacity, no physical register both
// free and mapped, RAT entries valid, every in-flight fused µ-op
// well-formed.
func (p *Pipeline) CheckInvariants() error {
	if p.rob.len() > p.cfg.ROBSize {
		return fmt.Errorf("ROB occupancy %d > %d", p.rob.len(), p.cfg.ROBSize)
	}
	if p.aq.len() > p.cfg.AQSize {
		return fmt.Errorf("AQ occupancy %d > %d", p.aq.len(), p.cfg.AQSize)
	}
	if len(p.iq) > p.cfg.IQSize {
		return fmt.Errorf("IQ occupancy %d > %d", len(p.iq), p.cfg.IQSize)
	}
	if len(p.lq) > p.cfg.LQSize {
		return fmt.Errorf("LQ occupancy %d > %d", len(p.lq), p.cfg.LQSize)
	}
	if len(p.sq) > p.cfg.SQSize {
		return fmt.Errorf("SQ occupancy %d > %d", len(p.sq), p.cfg.SQSize)
	}

	// No register is both free and architecturally mapped, and the free
	// list holds no duplicates.
	free := make(map[int32]bool, len(p.freeList))
	for _, r := range p.freeList {
		if r < 0 || int(r) >= p.cfg.PhysRegs {
			return fmt.Errorf("free list holds invalid register %d", r)
		}
		if free[r] {
			return fmt.Errorf("register %d on the free list twice", r)
		}
		free[r] = true
	}
	for arch, r := range p.rat {
		if r < 0 || int(r) >= p.cfg.PhysRegs {
			return fmt.Errorf("RAT[%d] = %d out of range", arch, r)
		}
		if free[r] {
			return fmt.Errorf("RAT[%d] = %d is also on the free list", arch, r)
		}
	}
	for arch, r := range p.cRAT {
		if free[r] {
			return fmt.Errorf("cRAT[%d] = %d is also on the free list", arch, r)
		}
	}

	// ROB entries are in sequence order and fused µ-ops are well-formed.
	var prev uint64
	for i := 0; i < p.rob.len(); i++ {
		u := p.rob.at(i)
		if i > 0 && u.r.Seq <= prev {
			return fmt.Errorf("ROB out of order at %d: %d after %d", i, u.r.Seq, prev)
		}
		prev = u.r.Seq
		if u.st == stKilled || u.st == stCommitted {
			return fmt.Errorf("ROB holds dead µ-op seq=%d st=%d", u.r.Seq, u.st)
		}
		if u.kind != uop.FuseNone && u.tail.Seq <= u.r.Seq {
			return fmt.Errorf("fused µ-op seq=%d has no tail record younger than it (tail seq=%d)",
				u.r.Seq, u.tail.Seq)
		}
		if u.pendSrcs < 0 || u.pendSrcs > u.numSrc {
			return fmt.Errorf("seq=%d pendSrcs=%d of %d", u.r.Seq, u.pendSrcs, u.numSrc)
		}
		for s := 0; s < int(u.numSrc); s++ {
			r := u.srcPhys[s]
			if r >= 0 && free[r] && u.st == stDispatched {
				return fmt.Errorf("seq=%d reads freed register %d", u.r.Seq, r)
			}
		}
	}

	// Every IQ/LQ/SQ occupant is live and present in the ROB's range.
	for _, q := range []struct {
		name string
		s    []*pUop
	}{{"IQ", p.iq}, {"LQ", p.lq}, {"SQ", p.sq}} {
		for _, u := range q.s {
			if u.st == stKilled {
				return fmt.Errorf("%s holds killed µ-op seq=%d", q.name, u.r.Seq)
			}
			if q.name != "SQ" && u.st == stCommitted {
				return fmt.Errorf("%s holds committed µ-op seq=%d", q.name, u.r.Seq)
			}
		}
	}

	// Pending NCSF heads must still be live and pending.
	for _, h := range p.pendingNCSF {
		if h.st == stKilled || !h.pending {
			return fmt.Errorf("stale pending NCSF head seq=%d", h.r.Seq)
		}
	}
	if len(p.pendingNCSF) > p.cfg.MaxNCSFNest {
		return fmt.Errorf("pending NCSF %d exceeds nest limit %d",
			len(p.pendingNCSF), p.cfg.MaxNCSFNest)
	}

	// Top-down slot conservation (DESIGN.md §12): every simulated cycle
	// is accounted and every bucket sum matches DispatchWidth × cycles.
	// Holds at every between-cycle point by construction — Move is
	// sum-preserving, so any misaccounting shows up here.
	if p.st.TopDown.Cycles != p.st.Cycles {
		return fmt.Errorf("top-down accounted %d cycles, pipeline ran %d",
			p.st.TopDown.Cycles, p.st.Cycles)
	}
	if err := p.st.TopDown.CheckConservation(); err != nil {
		return err
	}
	return nil
}

// RunChecked is Run with CheckInvariants called every interval cycles
// (0 = every cycle); it is the harness of the failure-injection tests
// and the chaos campaigns. A violation surfaces as a FailInvariant
// SimError with the snapshot attached.
//
//helios:ctx-ok top-of-stack convenience for tests and the chaos campaigns, which bound runs by instruction budget and watchdog, not by context
func (p *Pipeline) RunChecked(interval uint64) (*Stats, error) {
	if interval == 0 {
		interval = 1
	}
	return p.run(context.Background(), interval)
}
