package helios

import "testing"

func TestUCHPairDiscovery(t *testing.T) {
	u := NewUCH()
	// First load inserts; the second to the same line matches.
	if _, found := u.ObserveLoad(0x10, 100); found {
		t.Error("first observation cannot match")
	}
	d, found := u.ObserveLoad(0x10, 105)
	if !found || d != 5 {
		t.Fatalf("distance = %d, %v; want 5, true", d, found)
	}
	// The matched entry is invalidated: a third access inserts again.
	if _, found := u.ObserveLoad(0x10, 110); found {
		t.Error("entry must be invalidated after a match")
	}
}

func TestUCHDistanceBound(t *testing.T) {
	u := NewUCH()
	u.ObserveLoad(0x10, 0)
	if _, found := u.ObserveLoad(0x10, 65); found {
		t.Error("distance 65 exceeds the 64 µ-op maximum")
	}
	// Exactly 64 is allowed.
	u2 := NewUCH()
	u2.ObserveLoad(0x20, 0)
	if d, found := u2.ObserveLoad(0x20, 64); !found || d != 64 {
		t.Errorf("distance 64 should match, got %d %v", d, found)
	}
}

func TestUCHCNWrap(t *testing.T) {
	u := NewUCH()
	u.ObserveLoad(0x10, 120)
	// seq 130: (130-120)&127 = 10.
	if d, found := u.ObserveLoad(0x10, 130); !found || d != 10 {
		t.Errorf("wrapped distance = %d, %v; want 10", d, found)
	}
}

func TestUCHLRUReplacement(t *testing.T) {
	u := NewUCH()
	// Fill all 6 entries.
	for i := uint64(0); i < LdUCHEntries; i++ {
		u.ObserveLoad(0x100+i, i)
	}
	// Insert a 7th line: evicts the LRU (line 0x100).
	u.ObserveLoad(0x200, 6)
	// Line 0x101 is still resident (probe it before anything else: every
	// miss inserts and shifts the LRU order).
	if _, found := u.ObserveLoad(0x101, 7); !found {
		t.Error("resident line should match")
	}
	if _, found := u.ObserveLoad(0x100, 8); found {
		t.Error("evicted line must not match")
	}
}

func TestUCHStoreSingleEntry(t *testing.T) {
	u := NewUCH()
	u.ObserveStore(0x10, 0)
	u.ObserveStore(0x20, 1) // single-entry history: replaces 0x10
	if d, found := u.ObserveStore(0x20, 3); !found || d != 2 {
		t.Errorf("store match = %d, %v; want 2", d, found)
	}
	// The match invalidated the entry; the same line now re-inserts.
	if _, found := u.ObserveStore(0x20, 4); found {
		t.Error("matched entry must be invalidated")
	}
}

func TestUCHInvalidateStore(t *testing.T) {
	u := NewUCH()
	u.ObserveStore(0x10, 0)
	u.InvalidateStore()
	if _, found := u.ObserveStore(0x10, 1); found {
		t.Error("invalidated store must not match")
	}
}

func TestFPTrainToConfidence(t *testing.T) {
	f := NewFP()
	pc, ghr := uint64(0x1000), uint64(0)
	if _, ok := f.Predict(pc, ghr); ok {
		t.Error("untrained FP must miss")
	}
	// Three trainings saturate the 2-bit counter (1 -> 2 -> 3).
	for i := 0; i < 3; i++ {
		f.Train(pc, ghr, 5)
	}
	p, ok := f.Predict(pc, ghr)
	if !ok || p.Distance != 5 || !p.Confident {
		t.Fatalf("prediction = %+v, %v; want distance 5 confident", p, ok)
	}
}

func TestFPNotConfidentBeforeSaturation(t *testing.T) {
	f := NewFP()
	f.Train(0x1000, 0, 5)
	p, ok := f.Predict(0x1000, 0)
	if !ok {
		t.Fatal("trained FP must hit")
	}
	if p.Confident {
		t.Error("one training must not saturate confidence")
	}
}

func TestFPDistanceChangeResetsConfidence(t *testing.T) {
	f := NewFP()
	for i := 0; i < 3; i++ {
		f.Train(0x1000, 0, 5)
	}
	f.Train(0x1000, 0, 9) // new distance: confidence back to 1
	p, _ := f.Predict(0x1000, 0)
	if p.Distance != 9 || p.Confident {
		t.Errorf("prediction after distance change = %+v", p)
	}
}

func TestFPMispredictResetsConfidence(t *testing.T) {
	f := NewFP()
	for i := 0; i < 3; i++ {
		f.Train(0x1000, 0, 5)
	}
	p, _ := f.Predict(0x1000, 0)
	f.Mispredict(0x1000, 0, p)
	p2, ok := f.Predict(0x1000, 0)
	if !ok {
		t.Fatal("entry should survive a misprediction")
	}
	if p2.Confident {
		t.Error("confidence must reset to 0 on misprediction")
	}
}

func TestFPDistanceCap(t *testing.T) {
	f := NewFP()
	for i := 0; i < 3; i++ {
		f.Train(0x1000, 0, 1000)
	}
	p, _ := f.Predict(0x1000, 0)
	if p.Distance != maxFPDist {
		t.Errorf("distance = %d, want capped at %d", p.Distance, maxFPDist)
	}
	// Non-positive distances are ignored.
	before := f.Trainings
	f.Train(0x2000, 0, 0)
	if f.Trainings != before {
		t.Error("zero distance must not train")
	}
}

func TestFPGlobalComponentDisambiguatesByHistory(t *testing.T) {
	// The same PC fuses at distance 3 under history A and distance 7 under
	// history B: the local component thrashes, the global one learns both.
	f := NewFP()
	const pc = 0x1000
	ghrA, ghrB := uint64(0b1010), uint64(0b0101)
	for i := 0; i < 8; i++ {
		f.Train(pc, ghrA, 3)
		f.Train(pc, ghrB, 7)
	}
	pa, okA := f.Predict(pc, ghrA)
	pb, okB := f.Predict(pc, ghrB)
	if !okA || !okB {
		t.Fatal("both histories should hit")
	}
	if pa.Distance != 3 || pb.Distance != 7 {
		t.Errorf("distances = %d/%d, want 3/7 (global component)", pa.Distance, pb.Distance)
	}
	if !pa.Confident || !pb.Confident {
		t.Error("global entries should be confident after repeated agreement")
	}
}

func TestFPSetConflictEviction(t *testing.T) {
	f := NewFP()
	// 5 PCs mapping to the same local set (stride = sets*4 bytes) exceed
	// the 4 ways: the LRU entry is evicted.
	base := uint64(0x1000)
	stride := uint64(fpSets * 4)
	for i := uint64(0); i < 5; i++ {
		for j := 0; j < 3; j++ {
			f.Train(base+i*stride, uint64(i), 4)
		}
	}
	hits := 0
	for i := uint64(0); i < 5; i++ {
		// Use a fresh history so only the local component can hit;
		// global entries are scattered by the differing histories above.
		if _, ok := f.Predict(base+i*stride, uint64(i)); ok {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("hits = %d, want >= 4 (only one eviction)", hits)
	}
}

func TestStorageBudget(t *testing.T) {
	c := Cost(PaperParams())
	// Paper numbers: AQ changes 1.37 Kbit; 700/800/256 nucleus bits in
	// AQ/IQ/LQ; FP 72 Kbit; NCSF support ≈ 4.77 Kbit; total ≈ 76.77 Kbit;
	// with flush pointers ≈ 83 Kbit.
	if c.AQBits != 1400 {
		t.Errorf("AQ bits = %d, want 1400 (1.37 Kbit)", c.AQBits)
	}
	if c.PhysRegNucleusAQ != 700 || c.PhysRegNucleusIQ != 800 || c.PhysRegNucleusLQ != 256 {
		t.Errorf("nucleus bits = %d/%d/%d, want 700/800/256",
			c.PhysRegNucleusAQ, c.PhysRegNucleusIQ, c.PhysRegNucleusLQ)
	}
	if c.FusionPredictor != 73728 { // 72 Kbit
		t.Errorf("FP bits = %d, want 73728", c.FusionPredictor)
	}
	ncsf := c.NCSFBits()
	if ncsf < 4400 || ncsf > 5200 {
		t.Errorf("NCSF bits = %d, want ≈ 4.77 Kbit", ncsf)
	}
	total := c.TotalBits()
	if total < 77000 || total > 80000 {
		t.Errorf("total bits = %d, want ≈ 76.77 Kbit", total)
	}
	if c.FlushPointers != 6336 {
		t.Errorf("flush pointers = %d, want 6336", c.FlushPointers)
	}
	withFlush := c.TotalWithFlushBits()
	if withFlush < 83000 || withFlush > 87000 {
		t.Errorf("total with flush = %d, want ≈ 83-85 Kbit", withFlush)
	}
}

func TestProbabilisticCountersSlowConvergence(t *testing.T) {
	trainsUntilConfident := func(f *FP) int {
		for i := 1; ; i++ {
			f.Train(0x1000, 0, 5)
			if p, ok := f.Predict(0x1000, 0); ok && p.Confident {
				return i
			}
			if i > 10000 {
				t.Fatal("never became confident")
			}
		}
	}
	plain := trainsUntilConfident(NewFP())
	prob := trainsUntilConfident(NewFPWith(FPConfig{ProbShift: 3}))
	if plain != 3 {
		t.Errorf("plain FP needed %d trainings, want 3", plain)
	}
	if prob <= plain {
		t.Errorf("probabilistic FP converged in %d trainings, want > %d", prob, plain)
	}
}

func TestProbabilisticCountersResistNoise(t *testing.T) {
	// A stable distance with occasional noise: probabilistic updates drop
	// most of the noisy distance flips, so the entry stays confident more
	// of the time than with deterministic counters.
	confidentFraction := func(f *FP) float64 {
		confident := 0
		for i := 0; i < 4000; i++ {
			d := 5
			if i%5 == 4 {
				d = 9 // noise
			}
			f.Train(0x2000, 0, d)
			if p, ok := f.Predict(0x2000, 0); ok && p.Confident && p.Distance == 5 {
				confident++
			}
		}
		return float64(confident) / 4000
	}
	plain := confidentFraction(NewFP())
	prob := confidentFraction(NewFPWith(FPConfig{ProbShift: 2}))
	if prob <= plain {
		t.Errorf("probabilistic FP confident %.2f of the time, plain %.2f: hysteresis missing",
			prob, plain)
	}
}

func TestConfidenceThreshold(t *testing.T) {
	f := NewFPWith(FPConfig{ConfidenceThreshold: 1})
	f.Train(0x3000, 0, 4)
	p, ok := f.Predict(0x3000, 0)
	if !ok || !p.Confident {
		t.Errorf("threshold-1 FP should be confident after one training: %+v %v", p, ok)
	}
}

func TestUCHCustomSize(t *testing.T) {
	u := NewUCHSize(2)
	u.ObserveLoad(0x10, 0)
	u.ObserveLoad(0x20, 1)
	u.ObserveLoad(0x30, 2) // evicts 0x10
	if _, found := u.ObserveLoad(0x20, 3); !found {
		t.Error("resident line missing in 2-entry UCH")
	}
	if _, found := u.ObserveLoad(0x10, 4); found {
		t.Error("evicted line matched in 2-entry UCH")
	}
}
