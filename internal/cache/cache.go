// Package cache models the Icelake-like cache hierarchy of the paper's
// simulated machine (Table II): L1I, L1D, a unified L2, a last-level cache
// and a flat DRAM latency, with LRU replacement, miss-merge (MSHR-like)
// tracking and an optional next-line prefetcher.
//
// The model is timing-only: data values come from the functional emulator,
// the hierarchy answers "how many cycles does this access take".
package cache

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name     string
	Sets     int
	Ways     int
	LineSize uint64
	Latency  int // hit latency in cycles (total, not incremental)
}

// Level is one cache level with LRU replacement.
type Level struct {
	cfg    LevelConfig
	lines  []line // Sets × Ways
	clock  uint64
	next   *Level // nil means next is memory
	memLat int

	// In-flight fills, line address → ready cycle (MSHR merge).
	inflight map[uint64]uint64

	// Stats.
	Hits, Misses uint64
}

type line struct {
	valid bool
	tag   uint64
	stamp uint64
}

// NewLevel creates a cache level backed by next (or memory when next is
// nil, with memLat cycles of latency).
func NewLevel(cfg LevelConfig, next *Level, memLat int) *Level {
	return &Level{
		cfg:      cfg,
		lines:    make([]line, cfg.Sets*cfg.Ways),
		next:     next,
		memLat:   memLat,
		inflight: make(map[uint64]uint64),
	}
}

func (l *Level) set(lineAddr uint64) []line {
	idx := int(lineAddr % uint64(l.cfg.Sets))
	return l.lines[idx*l.cfg.Ways : (idx+1)*l.cfg.Ways]
}

// lookup probes without filling; returns way index or -1.
func (l *Level) lookup(lineAddr uint64) int {
	set := l.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return i
		}
	}
	return -1
}

// Contains reports whether the line holding addr is present (no side
// effects; for tests).
func (l *Level) Contains(addr uint64) bool {
	return l.lookup(addr/l.cfg.LineSize) >= 0
}

// Access performs a (timing) access to addr at the given cycle and returns
// the number of cycles until the data is available. Misses recurse into
// the next level and fill this one.
func (l *Level) Access(addr uint64, cycle uint64) int {
	lineAddr := addr / l.cfg.LineSize
	l.clock++
	if w := l.lookup(lineAddr); w >= 0 {
		l.Hits++
		l.set(lineAddr)[w].stamp = l.clock
		return l.cfg.Latency
	}
	l.Misses++
	// Merge with an outstanding fill of the same line if there is one.
	//helios:hotalloc-ok bounded miss-merge map, ≤256 entries by the sweep below; a read never allocates
	if ready, ok := l.inflight[lineAddr]; ok && ready > cycle {
		return int(ready-cycle) + l.cfg.Latency
	}
	var lat int
	if l.next != nil {
		lat = l.next.Access(addr, cycle)
	} else {
		lat = l.memLat
	}
	total := l.cfg.Latency + lat
	l.fill(lineAddr)
	//helios:hotalloc-ok bounded miss-merge map, ≤256 entries by the sweep below; replacing it would perturb cycle-exact timing pinned by the BENCH trajectory
	l.inflight[lineAddr] = cycle + uint64(total)
	if len(l.inflight) > 256 {
		l.pruneInflight(cycle)
	}
	return total
}

func (l *Level) fill(lineAddr uint64) {
	set := l.set(lineAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	l.clock++
	set[victim] = line{valid: true, tag: lineAddr, stamp: l.clock}
}

//helios:hotalloc-ok bounded sweep of the ≤256-entry inflight map, runs at most once per 256 outstanding misses
func (l *Level) pruneInflight(cycle uint64) {
	for k, ready := range l.inflight {
		if ready <= cycle {
			delete(l.inflight, k)
		}
	}
}

// Config describes the whole hierarchy.
type Config struct {
	LineSize         uint64
	L1I, L1D         LevelConfig
	L2, LLC          LevelConfig
	MemLatency       int
	NextLinePrefetch bool // simple next-line prefetcher on L1D misses
}

// DefaultConfig returns the Table II machine's hierarchy: 32 KiB 8-way
// L1I, 48 KiB 12-way 5-cycle L1D, 512 KiB 8-way 13-cycle L2, 2 MiB 16-way
// 40-cycle LLC, 200-cycle DRAM, 64 B lines.
func DefaultConfig() Config {
	return Config{
		LineSize:         64,
		L1I:              LevelConfig{Name: "L1I", Sets: 64, Ways: 8, LineSize: 64, Latency: 1},
		L1D:              LevelConfig{Name: "L1D", Sets: 64, Ways: 12, LineSize: 64, Latency: 5},
		L2:               LevelConfig{Name: "L2", Sets: 1024, Ways: 8, LineSize: 64, Latency: 13},
		LLC:              LevelConfig{Name: "LLC", Sets: 2048, Ways: 16, LineSize: 64, Latency: 40},
		MemLatency:       200,
		NextLinePrefetch: true,
	}
}

// Hierarchy wires the levels together: separate L1I/L1D over a unified
// L2 over the LLC over DRAM.
type Hierarchy struct {
	cfg Config
	l1i *Level
	l1d *Level
	l2  *Level
	llc *Level
}

// New builds a hierarchy from the configuration.
func New(cfg Config) *Hierarchy {
	llc := NewLevel(cfg.LLC, nil, cfg.MemLatency)
	l2 := NewLevel(cfg.L2, llc, 0)
	return &Hierarchy{
		cfg: cfg,
		l1i: NewLevel(cfg.L1I, l2, 0),
		l1d: NewLevel(cfg.L1D, l2, 0),
		l2:  l2,
		llc: llc,
	}
}

// L1D exposes the data cache level (for stats).
func (h *Hierarchy) L1D() *Level { return h.l1d }

// L1I exposes the instruction cache level (for stats).
func (h *Hierarchy) L1I() *Level { return h.l1i }

// Counters is a value snapshot of the hierarchy's hit/miss counts, the
// shape the interval sampler consumes (building one allocates nothing).
type Counters struct {
	L1IHits, L1IMisses uint64
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64
}

// Counters snapshots the per-level hit/miss counts.
func (h *Hierarchy) Counters() Counters {
	return Counters{
		L1IHits: h.l1i.Hits, L1IMisses: h.l1i.Misses,
		L1DHits: h.l1d.Hits, L1DMisses: h.l1d.Misses,
		L2Hits: h.l2.Hits, L2Misses: h.l2.Misses,
		LLCHits: h.llc.Hits, LLCMisses: h.llc.Misses,
	}
}

// FetchLatency models an instruction fetch of pc.
func (h *Hierarchy) FetchLatency(pc uint64, cycle uint64) int {
	return h.l1i.Access(pc, cycle)
}

// DataLatency models a data access covering [addr, addr+span). Accesses
// crossing a line boundary perform two serialized accesses: if the second
// line also hits, the penalty is a single cycle (as in current cores); a
// miss on the second line costs its full latency.
func (h *Hierarchy) DataLatency(addr, span uint64, cycle uint64) int {
	if span == 0 {
		span = 1
	}
	first := h.l1d.Access(addr, cycle)
	lastLine := (addr + span - 1) / h.cfg.LineSize
	if lastLine == addr/h.cfg.LineSize {
		h.maybePrefetch(addr, cycle)
		return first
	}
	secondAddr := lastLine * h.cfg.LineSize
	second := h.l1d.Access(secondAddr, cycle+uint64(first))
	h.maybePrefetch(secondAddr, cycle)
	if second <= h.cfg.L1D.Latency {
		return first + 1 // both lines in L1: one extra serialized cycle
	}
	return first + second
}

func (h *Hierarchy) maybePrefetch(addr uint64, cycle uint64) {
	if !h.cfg.NextLinePrefetch {
		return
	}
	next := (addr/h.cfg.LineSize + 1) * h.cfg.LineSize
	if h.l1d.lookup(next/h.cfg.LineSize) < 0 {
		// Issue the prefetch; its latency is absorbed off the critical path.
		h.l1d.Access(next, cycle)
	}
}
