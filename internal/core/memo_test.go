package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// waitCtx closes waiting the first time a claim selects on its Done
// channel: the claim has found a flight and is about to block on it.
type waitCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

type claimed struct {
	e         memoEntry[int]
	lead      bool
	coalesced bool
	err       error
}

// claimBlocked runs one claim on its own goroutine and returns once the
// claim blocks on key's flight, so a settle after it deterministically
// finds a waiter.
func claimBlocked(m *memo[string, int], key string) <-chan claimed {
	ctx := &waitCtx{Context: context.Background(), waiting: make(chan struct{})}
	out := make(chan claimed, 1)
	go func() {
		e, lead, coalesced, err := m.claim(ctx, key)
		out <- claimed{e, lead, coalesced, err}
	}()
	<-ctx.waiting
	return out
}

func TestMemoHit(t *testing.T) {
	m := newMemo[string, int]()
	ctx := context.Background()
	if _, lead, coalesced, err := m.claim(ctx, "k"); !lead || coalesced || err != nil {
		t.Fatalf("first claim: lead=%v coalesced=%v err=%v, want a plain leader", lead, coalesced, err)
	}
	if !m.settle("k", 7, nil) {
		t.Fatal("settle did not store a value")
	}
	e, lead, coalesced, err := m.claim(ctx, "k")
	if lead || coalesced || err != nil || e.val != 7 || e.err != nil {
		t.Fatalf("second claim = (%+v, lead=%v, coalesced=%v, %v), want a pure hit on 7", e, lead, coalesced, err)
	}
}

func TestMemoCoalescedWaiter(t *testing.T) {
	m := newMemo[string, int]()
	if _, lead, _, _ := m.claim(context.Background(), "k"); !lead {
		t.Fatal("first claim did not lead")
	}
	out := claimBlocked(m, "k")
	m.settle("k", 7, nil)
	got := <-out
	if got.lead || !got.coalesced || got.err != nil || got.e.val != 7 {
		t.Fatalf("waiter = %+v, want the leader's 7, coalesced", got)
	}
}

// TestMemoLeaderCancelled: a leader whose context dies stores nothing,
// and the waiter behind it leads the next attempt; its value is the one
// stored.
func TestMemoLeaderCancelled(t *testing.T) {
	m := newMemo[string, int]()
	if _, lead, _, _ := m.claim(context.Background(), "k"); !lead {
		t.Fatal("first claim did not lead")
	}
	out := claimBlocked(m, "k")
	if m.settle("k", 0, fmt.Errorf("run: %w", context.Canceled)) {
		t.Fatal("a context failure was stored")
	}
	got := <-out
	if !got.lead || !got.coalesced || got.err != nil {
		t.Fatalf("waiter = %+v, want it to take over as a coalesced leader", got)
	}
	if !m.settle("k", 9, nil) {
		t.Fatal("the new leader's value was not stored")
	}
	if e, lead, _, _ := m.claim(context.Background(), "k"); lead || e.val != 9 {
		t.Fatalf("after takeover: lead=%v val=%d, want a hit on 9", lead, e.val)
	}
}

func TestMemoCachesNonContextErrors(t *testing.T) {
	m := newMemo[string, int]()
	ctx := context.Background()
	boom := errors.New("boom")
	m.claim(ctx, "k")
	if !m.settle("k", 0, boom) {
		t.Fatal("a non-context error was not stored")
	}
	e, lead, _, _ := m.claim(ctx, "k")
	if lead || !errors.Is(e.err, boom) {
		t.Fatalf("claim after a failure: lead=%v err=%v, want the stored %v", lead, e.err, boom)
	}

	m.claim(ctx, "d")
	if m.settle("d", 0, fmt.Errorf("run: %w", context.DeadlineExceeded)) {
		t.Fatal("a deadline failure was stored")
	}
	if _, lead, _, _ := m.claim(ctx, "d"); !lead {
		t.Fatal("a deadline failure left the key settled; a retry must lead")
	}
}

// TestMemoInstallNeverOverrides: install fills only empty keys — a
// stored entry and a computation in flight both win over it.
func TestMemoInstallNeverOverrides(t *testing.T) {
	m := newMemo[string, int]()
	ctx := context.Background()
	if !m.install("empty", 1) {
		t.Error("install into an empty key failed")
	}
	if e, lead, _, _ := m.claim(ctx, "empty"); lead || e.val != 1 {
		t.Errorf("installed key: lead=%v val=%d, want a hit on 1", lead, e.val)
	}

	m.claim(ctx, "live")
	m.settle("live", 2, nil)
	if m.install("live", 3) {
		t.Error("install replaced a live entry")
	}
	if e, _, _, _ := m.claim(ctx, "live"); e.val != 2 {
		t.Errorf("live entry = %d after install, want 2", e.val)
	}

	m.claim(ctx, "flying")
	if m.install("flying", 4) {
		t.Error("install raced an in-flight computation")
	}
	m.settle("flying", 5, nil)
	if e, _, _, _ := m.claim(ctx, "flying"); e.val != 5 {
		t.Errorf("in-flight key = %d after install, want the leader's 5", e.val)
	}
}
