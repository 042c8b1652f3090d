package lint

// Registry returns every analyzer in the suite, in catalog order
// (DESIGN.md §10: the single-package three, then the call-graph four).
// cmd/heliosvet runs them all; individual tests run them one at a time
// over testdata packages. Each guards a convention no test catches.
func Registry() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		CtxFirst,
		MagicLatency,
		HotAlloc,
		LockGuard,
		GoroutineLife,
		ErrTaxonomy,
	}
}
