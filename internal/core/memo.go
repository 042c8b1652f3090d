package core

import (
	"context"
	"sync"
)

// memo is the singleflight cache behind every Suite lookup: the
// recordings and the results. Entries and in-flight channels live under
// one mutex. The first caller for a key leads: it computes while every
// later caller waits on the key's flight channel, and each waiter looks
// again once the channel closes. Values and non-context errors are
// stored; a context error belongs to its caller, not to the key, so it
// is never stored. A waiter whose leader was cancelled therefore finds
// neither an entry nor a flight, and leads the next attempt under its
// own context — no computation outlives the request that started it.
// V is comparable so the degrade repair can ask whether an entry still
// holds the value it watched fail.
type memo[K, V comparable] struct {
	mu      sync.Mutex
	entries map[K]memoEntry[V]
	flight  map[K]chan struct{}
}

type memoEntry[V comparable] struct {
	val V
	err error
}

func newMemo[K, V comparable]() *memo[K, V] {
	return &memo[K, V]{
		entries: make(map[K]memoEntry[V]),
		flight:  make(map[K]chan struct{}),
	}
}

// claim returns key's stored entry, waiting out any computation in
// flight. When there is neither, the caller becomes key's leader
// (lead is true) and must call settle exactly once. coalesced reports
// that the call waited on another leader; err is ctx's error when ctx
// ended the wait.
func (m *memo[K, V]) claim(ctx context.Context, key K) (e memoEntry[V], lead, coalesced bool, err error) {
	var zero V
	return m.acquire(ctx, key, false, zero)
}

// replace is claim for a caller that watched the value old fail: while
// key's entry still holds old, the caller leads its replacement, and
// other claims keep reading old until settle swaps it. Once the entry
// holds anything else — another caller's replacement — replace returns
// that instead. This is the replace-if-unchanged step of the degrade
// repair.
func (m *memo[K, V]) replace(ctx context.Context, key K, old V) (e memoEntry[V], lead, coalesced bool, err error) {
	return m.acquire(ctx, key, true, old)
}

func (m *memo[K, V]) acquire(ctx context.Context, key K, replacing bool, old V) (e memoEntry[V], lead, coalesced bool, err error) {
	m.mu.Lock()
	for {
		if e, ok := m.entries[key]; ok && !(replacing && e.val == old) {
			m.mu.Unlock()
			return e, false, coalesced, nil
		}
		ch, inflight := m.flight[key]
		if !inflight {
			break
		}
		coalesced = true
		m.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return memoEntry[V]{}, false, true, ctx.Err()
		}
		m.mu.Lock()
	}
	m.flight[key] = make(chan struct{})
	m.mu.Unlock()
	return memoEntry[V]{}, true, coalesced, nil
}

// settle ends a leader's flight: it stores (v, err) unless err is a
// context failure, then wakes every waiter. It reports whether the
// entry was stored.
func (m *memo[K, V]) settle(key K, v V, err error) bool {
	stored := !isCtxErr(err)
	m.mu.Lock()
	if stored {
		m.entries[key] = memoEntry[V]{val: v, err: err}
	}
	ch := m.flight[key]
	delete(m.flight, key)
	m.mu.Unlock()
	close(ch)
	return stored
}

// install stores v for key unless key already has an entry or a
// computation in flight, and reports whether it did. A value computed
// by this process always wins over one supplied from outside.
func (m *memo[K, V]) install(key K, v V) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return false
	}
	if _, ok := m.flight[key]; ok {
		return false
	}
	m.entries[key] = memoEntry[V]{val: v}
	return true
}

// keys returns the stored keys in map order; callers sort.
func (m *memo[K, V]) keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]K, 0, len(m.entries))
	//helios:nondeterminism-ok order is the caller's to fix; CacheSnapshot sorts
	for k := range m.entries {
		out = append(out, k)
	}
	return out
}

// size returns the number of stored entries.
func (m *memo[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
