package lint

// Registry returns every analyzer in the suite, in catalog order
// (DESIGN.md §10: the single-package six, then the call-graph four).
// cmd/heliosvet runs them all; individual tests run them one at a time
// over testdata packages.
func Registry() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		SeededRand,
		StatsComplete,
		CtxFirst,
		MagicLatency,
		ErrPolicy,
		HotAlloc,
		LockGuard,
		GoroutineLife,
		ErrTaxonomy,
	}
}
