// Package branch implements the control-flow prediction structures used by
// the pipeline model: a TAGE conditional branch predictor (the paper's
// baseline uses L-TAGE) over a bimodal base, a branch target buffer, and
// a return address stack.
package branch

// counter2 is a 2-bit saturating counter; values 0..3, taken when >= 2.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) inc() counter2 {
	if c < 3 {
		return c + 1
	}
	return c
}

func (c counter2) dec() counter2 {
	if c > 0 {
		return c - 1
	}
	return c
}

func (c counter2) update(taken bool) counter2 {
	if taken {
		return c.inc()
	}
	return c.dec()
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter2
	mask  uint64
}

// NewBimodal creates a bimodal predictor with 2^logSize entries,
// initialised weakly taken.
func NewBimodal(logSize uint) *Bimodal {
	n := uint64(1) << logSize
	t := make([]counter2, n)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: n - 1}
}

// Predict returns the predicted direction of the branch at pc.
func (b *Bimodal) Predict(pc uint64, _ uint64) bool {
	return b.table[(pc>>2)&b.mask].taken()
}

// Update trains the branch's counter with the resolved direction.
func (b *Bimodal) Update(pc uint64, _ uint64, taken bool) {
	i := (pc >> 2) & b.mask
	b.table[i] = b.table[i].update(taken)
}

// History maintains the speculative global branch history register.
type History struct {
	bits uint64
}

// Push shifts one outcome into the history.
func (h *History) Push(taken bool) {
	h.bits <<= 1
	if taken {
		h.bits |= 1
	}
}

// Bits returns the raw history bits (most recent outcome in bit 0).
func (h *History) Bits() uint64 { return h.bits }

// Set overwrites the history (used on pipeline flush recovery).
func (h *History) Set(bits uint64) { h.bits = bits }
