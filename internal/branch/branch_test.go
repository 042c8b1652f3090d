package branch

import (
	"math/rand"
	"testing"
)

// directionPredictor is what Bimodal and TAGE share.
type directionPredictor interface {
	Predict(pc uint64, ghr uint64) bool
	Update(pc uint64, ghr uint64, taken bool)
}

// trainAccuracy runs a predictor over a synthetic outcome stream and
// returns the fraction predicted correctly after warmup.
func trainAccuracy(p directionPredictor, outcomes func(i int) (pc uint64, taken bool), n, warmup int) float64 {
	var h History
	correct, total := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		pred := p.Predict(pc, h.Bits())
		if i >= warmup {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, h.Bits(), taken)
		h.Push(taken)
	}
	return float64(correct) / float64(total)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		// Branch at 0x100 is always taken; branch at 0x200 never.
		if i%2 == 0 {
			return 0x100, true
		}
		return 0x200, false
	}, 2000, 100)
	if acc < 0.99 {
		t.Errorf("bimodal accuracy on biased branches = %.3f, want >= 0.99", acc)
	}
}

func TestBimodalCannotLearnPattern(t *testing.T) {
	// Strictly alternating outcome: a bimodal counter hovers and misses.
	p := NewBimodal(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		return 0x100, i%2 == 0
	}, 2000, 100)
	if acc > 0.7 {
		t.Errorf("bimodal accuracy on alternating pattern = %.3f, expected poor", acc)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// Period-20 pattern requires a long history; TAGE should nail it.
	pattern := make([]bool, 20)
	r := rand.New(rand.NewSource(7))
	for i := range pattern {
		pattern[i] = r.Intn(2) == 0
	}
	p := NewTAGE(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		return 0x400, pattern[i%len(pattern)]
	}, 20000, 5000)
	if acc < 0.95 {
		t.Errorf("TAGE accuracy on period-20 pattern = %.3f, want >= 0.95", acc)
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B correlates with the previous two outcomes of branch A.
	gen := func(i int) (uint64, bool) {
		phase := i % 3
		switch phase {
		case 0:
			return 0x100, i%6 < 3
		case 1:
			return 0x200, i%6 >= 3
		default:
			return 0x300, (i%6 < 3) != (i%6 >= 3)
		}
	}
	tage := trainAccuracy(NewTAGE(10), gen, 12000, 3000)
	bimodal := trainAccuracy(NewBimodal(10), gen, 12000, 3000)
	if tage < bimodal {
		t.Errorf("TAGE (%.3f) should be at least as good as bimodal (%.3f)", tage, bimodal)
	}
	if tage < 0.9 {
		t.Errorf("TAGE accuracy = %.3f, want >= 0.9", tage)
	}
}

func TestFoldHistory(t *testing.T) {
	// Folding must confine the result to width bits and depend on history.
	if got := foldHistory(^uint64(0), 64, 10); got >= 1<<10 {
		t.Errorf("fold overflow: %#x", got)
	}
	if foldHistory(0b1010, 4, 10) == foldHistory(0b0101, 4, 10) {
		t.Error("fold should distinguish different histories")
	}
	if foldHistory(0, 64, 10) != 0 {
		t.Error("fold of zero history must be zero")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB hit")
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	// Update in place.
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("updated target = %#x", tgt)
	}
}

func TestBTBEviction(t *testing.T) {
	b := NewBTB(1, 2) // tiny: one set, two ways
	b.Insert(0x100, 1)
	b.Insert(0x200, 2)
	// Touch 0x100 so 0x200 becomes LRU.
	b.Lookup(0x100)
	b.Insert(0x300, 3)
	if _, ok := b.Lookup(0x200); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := b.Lookup(0x100); !ok {
		t.Error("MRU entry should have survived")
	}
	if _, ok := b.Lookup(0x300); !ok {
		t.Error("new entry missing")
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if r.Depth() != 1 {
		t.Errorf("depth = %d, want 1", r.Depth())
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites oldest
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS should be empty after wrap: entry 1 was overwritten")
	}
}

func TestHistory(t *testing.T) {
	var h History
	h.Push(true)
	h.Push(false)
	h.Push(true)
	if h.Bits() != 0b101 {
		t.Errorf("bits = %#b", h.Bits())
	}
	h.Set(0)
	if h.Bits() != 0 {
		t.Error("Set failed")
	}
}
