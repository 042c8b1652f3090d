package branch

// TAGE is a tagged-geometric-history-length conditional branch predictor
// (Seznec & Michaud), the class of predictor the paper's baseline machine
// uses (L-TAGE). It combines a bimodal base predictor with several tagged
// components indexed with geometrically increasing history lengths.
type TAGE struct {
	base  *Bimodal
	comps []*tageComponent

	// Allocation-throttling counter (useful-bit reset).
	tick int
}

type tageComponent struct {
	histLen uint
	logSize uint
	mask    uint64
	entries []tageEntry
}

type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed: -4..3, taken when >= 0
	useful uint8 // 2-bit usefulness
}

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = []uint{4, 8, 16, 32, 64, 128}

// NewTAGE creates a TAGE predictor with six tagged components of
// 2^logSize entries each and a 2^(logSize+1)-entry bimodal base.
func NewTAGE(logSize uint) *TAGE {
	t := &TAGE{base: NewBimodal(logSize + 1)}
	for _, hl := range tageHistLens {
		n := uint64(1) << logSize
		t.comps = append(t.comps, &tageComponent{
			histLen: hl,
			logSize: logSize,
			mask:    n - 1,
			entries: make([]tageEntry, n),
		})
	}
	return t
}

// foldHistory folds histLen bits of history into width bits.
func foldHistory(ghr uint64, histLen, width uint) uint64 {
	h := ghr
	if histLen < 64 {
		h &= 1<<histLen - 1
	}
	var folded uint64
	for histLen > 0 {
		folded ^= h & (1<<width - 1)
		h >>= width
		if histLen >= width {
			histLen -= width
		} else {
			histLen = 0
		}
	}
	return folded
}

func (c *tageComponent) index(pc, ghr uint64) uint64 {
	return ((pc >> 2) ^ (pc >> (2 + c.logSize)) ^ foldHistory(ghr, c.histLen, c.logSize)) & c.mask
}

func (c *tageComponent) tag(pc, ghr uint64) uint16 {
	return uint16(((pc >> 2) ^ foldHistory(ghr, c.histLen, 8) ^ foldHistory(ghr, c.histLen, 7)<<1) & 0xff)
}

// Predict returns the predicted direction of the branch at pc under the
// global history ghr.
func (t *TAGE) Predict(pc, ghr uint64) bool {
	pred, _, _ := t.predict(pc, ghr)
	return pred
}

// predict returns the prediction, the provider component index (-1 for the
// base predictor) and the alternate prediction.
func (t *TAGE) predict(pc, ghr uint64) (pred bool, provider int, altPred bool) {
	provider = -1
	altProvider := -1
	for i := len(t.comps) - 1; i >= 0; i-- {
		c := t.comps[i]
		e := &c.entries[c.index(pc, ghr)]
		if e.tag == c.tag(pc, ghr) {
			if provider < 0 {
				provider = i
			} else {
				altProvider = i
				break
			}
		}
	}
	altPred = t.base.Predict(pc, ghr)
	if altProvider >= 0 {
		c := t.comps[altProvider]
		altPred = c.entries[c.index(pc, ghr)].ctr >= 0
	}
	if provider >= 0 {
		c := t.comps[provider]
		return c.entries[c.index(pc, ghr)].ctr >= 0, provider, altPred
	}
	return altPred, provider, altPred
}

// Update trains the predictor with the branch's resolved direction.
func (t *TAGE) Update(pc, ghr uint64, taken bool) {
	pred, provider, altPred := t.predict(pc, ghr)

	// Update the provider's counter (or the base predictor).
	if provider >= 0 {
		c := t.comps[provider]
		e := &c.entries[c.index(pc, ghr)]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		// Usefulness: the provider was useful if it differed from altpred
		// and was correct.
		if pred != altPred {
			if pred == taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
	} else {
		t.base.Update(pc, ghr, taken)
	}

	// On a misprediction, try to allocate an entry in a longer-history
	// component.
	if pred != taken {
		t.allocate(pc, ghr, taken, provider)
	}
}

func (t *TAGE) allocate(pc, ghr uint64, taken bool, provider int) {
	start := provider + 1
	if start >= len(t.comps) {
		return
	}
	// Find a component with a non-useful entry.
	for i := start; i < len(t.comps); i++ {
		c := t.comps[i]
		e := &c.entries[c.index(pc, ghr)]
		if e.useful == 0 {
			e.tag = c.tag(pc, ghr)
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// All candidates were useful: age them so future allocations succeed.
	t.tick++
	if t.tick >= 8 {
		t.tick = 0
		for i := start; i < len(t.comps); i++ {
			c := t.comps[i]
			e := &c.entries[c.index(pc, ghr)]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
}
