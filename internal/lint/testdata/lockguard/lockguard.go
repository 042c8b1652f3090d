// Package lockx seeds lockguard violations for the golden test: a
// counter whose field is majority-accessed under its mutex (so the
// guard set is inferred) with one racy reader, the same for a generic
// cache, and a pair of methods that acquire two mutexes in opposite
// orders.
package lockx

import "sync"

type counter struct {
	mu   sync.Mutex
	n    int
	hits int
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) add(d int) {
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

func (c *counter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 0
}

// getOrInit is the singleflight idiom from the suite cache: unlock and
// return on the hit path, fall through still holding the lock. The
// early-return branch must not poison the lock state of the code after
// the if — every access here is guarded.
func (c *counter) getOrInit() int {
	c.mu.Lock()
	for {
		if c.n > 0 {
			n := c.n
			c.mu.Unlock()
			return n
		}
		break
	}
	c.n = 1 // ok: still held; the terminated branch took its unlock with it
	c.mu.Unlock()
	return 1
}

func (c *counter) racyPeek() int {
	return c.n // want "field counter.n is guarded by counter.mu"
}

func (c *counter) snapshot() int {
	//helios:lockguard-ok log-only read, staleness acceptable
	return c.n // ok: annotated with a reason
}

// hits is touched only once under lock: below the inference threshold,
// so the unguarded read stays quiet.
func (c *counter) bump() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *counter) peekHits() int { return c.hits } // ok: no inferred guard set

// cache is generic, like the suite's singleflight memo: each method
// declares its own receiver type parameters, and its accesses still
// pool into one guard set.
type cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]V
}

func (c *cache[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[k] = v
}

func (c *cache[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	return v, ok
}

func (c *cache[K, V]) size() int {
	return len(c.entries) // want "field cache.entries is guarded by cache.mu"
}

type twin struct {
	mu1 sync.Mutex
	mu2 sync.Mutex
	x   int
	y   int
}

func (t *twin) lockBoth() {
	t.mu1.Lock()
	t.mu2.Lock()
	t.x++
	t.mu2.Unlock()
	t.mu1.Unlock()
}

func (t *twin) lockBothReversed() {
	t.mu2.Lock()
	t.mu1.Lock() // want "lock-order inversion"
	t.y++
	t.mu1.Unlock()
	t.mu2.Unlock()
}
