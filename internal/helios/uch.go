// Package helios implements the paper's contribution: the predictor
// infrastructure that drives non-consecutive (NCSF), non-contiguous
// (NCTF) and different-base-register (DBR) memory fusion.
//
// Two structures cooperate (Section IV-A): the Unfused Committed History
// (UCH) lives at Commit and discovers fuseable pairs among µ-ops that
// retired unfused; the Fusion Predictor (FP) lives at Decode and predicts,
// for a µ-op PC, the distance in µ-ops to the head nucleus it should fuse
// with. The package also provides the storage cost model of Section IV-B7.
package helios

// UCH parameters from the paper: 6-entry fully associative load history,
// single-entry store history, 7-bit commit numbers, 64 µ-op max distance.
const (
	LdUCHEntries = 6
	MaxDistance  = 64
	cnMask       = 127 // 7-bit commit number
)

type uchEntry struct {
	valid bool
	tag   uint64 // cache line address (32-bit partial tag in hardware)
	cn    uint8  // 7-bit commit number of the unfused µ-op
	stamp uint64 // LRU (realised through the CN in hardware)
}

// UCH is the Unfused Committed History. Loads and stores have distinct
// histories: stores keep only the last unfused committed store because
// stores must not fuse across other stores.
type UCH struct {
	loads []uchEntry
	store uchEntry
	clock uint64

	// Stats.
	LoadMatches, StoreMatches uint64
	LoadInserts, StoreInserts uint64
}

// NewUCH returns an empty history with the paper's 6-entry load side.
func NewUCH() *UCH { return NewUCHSize(LdUCHEntries) }

// NewUCHSize returns a history with a custom load-side capacity
// (for the sizing ablation; the paper chose 6).
func NewUCHSize(loadEntries int) *UCH {
	if loadEntries < 1 {
		loadEntries = 1
	}
	return &UCH{loads: make([]uchEntry, loadEntries)}
}

// ObserveLoad is called when an unfused load commits. If an earlier
// unfused load to the same cache line is present, the pair is reported:
// the entry is invalidated (a µ-op can fuse with only one other µ-op) and
// the distance between the two µ-ops is returned for FP training.
// Otherwise the load is inserted.
func (u *UCH) ObserveLoad(lineAddr uint64, seq uint64) (distance int, found bool) {
	u.clock++
	cn := uint8(seq & cnMask)
	for i := range u.loads {
		e := &u.loads[i]
		if e.valid && e.tag == lineAddr {
			d := int((cn - e.cn) & cnMask)
			e.valid = false
			if d >= 1 && d <= MaxDistance {
				u.LoadMatches++
				return d, true
			}
			// CN wrapped or same µ-op slot: treat as stale, fall through
			// to insertion.
			break
		}
	}
	u.insertLoad(lineAddr, cn)
	return 0, false
}

func (u *UCH) insertLoad(lineAddr uint64, cn uint8) {
	u.LoadInserts++
	victim := 0
	for i := range u.loads {
		if !u.loads[i].valid {
			victim = i
			break
		}
		if u.loads[i].stamp < u.loads[victim].stamp {
			victim = i
		}
	}
	u.loads[victim] = uchEntry{valid: true, tag: lineAddr, cn: cn, stamp: u.clock}
}

// ObserveStore is the store-side equivalent with a single-entry history.
func (u *UCH) ObserveStore(lineAddr uint64, seq uint64) (distance int, found bool) {
	u.clock++
	cn := uint8(seq & cnMask)
	if u.store.valid && u.store.tag == lineAddr {
		d := int((cn - u.store.cn) & cnMask)
		u.store.valid = false
		if d >= 1 && d <= MaxDistance {
			u.StoreMatches++
			return d, true
		}
	}
	u.StoreInserts++
	u.store = uchEntry{valid: true, tag: lineAddr, cn: cn, stamp: u.clock}
	return 0, false
}

// InvalidateStore clears the store history; called when a store commits
// that must not be a head nucleus (e.g. it was fused already). This keeps
// the "no store in catalyst" rule intact: the last unfused committed store
// is only valid if no other store committed since.
func (u *UCH) InvalidateStore() { u.store.valid = false }
