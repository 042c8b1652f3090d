package ooo

// This file holds the hot-path memory-layout structures (DESIGN.md §13):
// a free-list arena recycling pUop objects across the run, and an event
// wheel replacing the per-cycle completion map. Both trade the general
// map/allocate idiom for slice indexing, which the simulator can afford
// because the keys (µ-op slots, cycles) are dense and bounded.

// uopArena recycles pUop objects. µ-ops are allocated in fixed-size
// chunks (pointer stability: a pUop never moves once handed out) and
// returned through a free list when they leave the pipeline. Each recycle
// bumps the µ-op's generation counter, which lets the structures that may
// hold stale references — register waiter lists and the event wheel —
// detect that "their" µ-op has been reincarnated and ignore it.
type uopArena struct {
	chunks [][]pUop
	used   int // occupancy of the last chunk
	free   []*pUop
}

const arenaChunk = 256

// alloc returns a reset µ-op: zero fields except the generation counter,
// with the physical-register slots marked invalid.
func (a *uopArena) alloc() *pUop {
	var u *pUop
	if n := len(a.free); n > 0 {
		u = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		u.pooled = false
	} else {
		if len(a.chunks) == 0 || a.used == arenaChunk {
			a.chunks = append(a.chunks, make([]pUop, arenaChunk))
			a.used = 0
		}
		u = &a.chunks[len(a.chunks)-1][a.used]
		a.used++
	}
	u.srcPhys = [3]int32{invalidReg, invalidReg, invalidReg}
	u.dstPhys = [2]int32{invalidReg, invalidReg}
	u.oldPhys = [2]int32{invalidReg, invalidReg}
	return u
}

// release returns a µ-op to the free list. The caller must guarantee no
// live structure still dereferences it without a generation check; the
// reset wipes every field (pinned by TestUopResetComplete) so nothing can
// leak into the next incarnation. Double release is a bookkeeping bug
// severe enough to stop the run: the panic is converted to a SimError by
// the run loop's recover.
func (a *uopArena) release(u *pUop) {
	if u.pooled {
		panic("ooo: µ-op released twice")
	}
	u.reset()
	//helios:hotalloc-ok free list refills capacity vacated by alloc; it grows only while the arena itself grows (warmup), then never again
	a.free = append(a.free, u)
}

// reset wipes the µ-op for reuse, keeping only the generation counter
// (bumped, so stale waiter/event references fail their gen check) and the
// pooled flag.
func (u *pUop) reset() {
	*u = pUop{gen: u.gen + 1, pooled: true}
}

// eventRef is one pending completion in the event wheel. The generation
// snapshot guards against the µ-op being flushed, released and recycled
// while its completion was still in flight.
type eventRef struct {
	u   *pUop
	gen uint32
}

// eventWheel schedules µ-op completions by absolute cycle. Slots are
// indexed cycle&mask; grow-on-insert keeps the horizon (completeAt −
// current cycle) strictly below the slot count, so a slot never holds
// events for two different future cycles. Growth is rare: the horizon is
// bounded by the worst memory latency, but chaos configs randomize cache
// latencies, so the bound is discovered at run time rather than sized
// from the config.
type eventWheel struct {
	slots [][]eventRef
	mask  uint64
}

func newEventWheel() *eventWheel {
	const initSlots = 1024 // > default worst-case DRAM latency
	return &eventWheel{slots: make([][]eventRef, initSlots), mask: initSlots - 1}
}

// schedule inserts a completion at absolute cycle `at`, where now is the
// current cycle (needed to maintain the horizon invariant).
func (w *eventWheel) schedule(u *pUop, at, now uint64) {
	if at-now >= uint64(len(w.slots)) {
		w.grow(at-now, now)
	}
	i := at & w.mask
	//helios:hotalloc-ok slot slices are drained to [:0] and reused; capacity reaches the per-cycle event peak once, then stays
	w.slots[i] = append(w.slots[i], eventRef{u: u, gen: u.gen})
}

// grow rebuilds the wheel with at least horizon+1 slots (next power of
// two), re-slotting pending events under the new mask.
//
//helios:hotalloc-ok geometric growth to the longest latency ever seen, then never again; amortized O(1) per schedule
func (w *eventWheel) grow(horizon, now uint64) {
	n := uint64(len(w.slots))
	for n <= horizon {
		n *= 2
	}
	old := w.slots
	w.slots = make([][]eventRef, n)
	w.mask = n - 1
	for _, evs := range old {
		for _, e := range evs {
			// Pending events all lie within the old horizon, hence within
			// the new one; their absolute cycle is recoverable from the
			// µ-op itself.
			i := e.u.completeAt & w.mask
			w.slots[i] = append(w.slots[i], e)
		}
	}
}

// drain returns the events due at cycle `now` and empties the slot. The
// returned slice is only valid until the next schedule call for that
// slot; callers must filter each entry through its generation check.
func (w *eventWheel) drain(now uint64) []eventRef {
	i := now & w.mask
	evs := w.slots[i]
	w.slots[i] = evs[:0]
	return evs
}
