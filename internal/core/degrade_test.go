package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/ooo"
	"helios/internal/trace"
	"helios/internal/workloads"
)

// corruptRecording builds a recording whose record stream is valid until
// midway, then jumps the sequence numbers — the pipeline's stream
// validation rejects it as a corrupt trace.
func corruptRecording(name string, budget uint64) *trace.Recording {
	recs := make([]emu.Retired, 64)
	for i := range recs {
		recs[i] = emu.Retired{
			Seq:    uint64(i),
			PC:     0x1000 + uint64(i)*4,
			NextPC: 0x1000 + uint64(i)*4 + 4,
			Inst:   isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		}
	}
	recs[32].Seq = 9999 // sequence discontinuity: silent record loss
	return trace.FromRecords(name, budget, recs)
}

// TestSuiteDegradesCorruptRecording seeds a corrupt recording and checks
// the graceful-degradation contract: every fusion mode still produces a
// result, at the cost of exactly one live re-emulation.
func TestSuiteDegradesCorruptRecording(t *testing.T) {
	const budget = 20_000
	s := NewSuite(budget)
	s.SeedRecording(corruptRecording("crc32", budget))

	ctx := context.Background()
	var committed []uint64
	for _, m := range fusion.Modes {
		r, err := s.Get(ctx, "crc32", m)
		if err != nil {
			t.Fatalf("%v: corrupt recording was not repaired: %v", m, err)
		}
		if r.Stats.CommittedInsts == 0 {
			t.Fatalf("%v: empty result after repair", m)
		}
		committed = append(committed, r.Stats.CommittedInsts)
	}
	for i, c := range committed {
		if c != committed[0] {
			t.Errorf("mode %v committed %d insts, want %d (fusion must not change architecture)",
				fusion.Modes[i], c, committed[0])
		}
	}
	if got := s.Metrics().LiveFallbacks; got != 1 {
		t.Errorf("LiveFallbacks = %d, want exactly 1 (repair once, reuse for all modes)", got)
	}
}

// TestRepairedRecordingFailureSurfaces checks the other half of the
// repair-once contract: if the recording marked as repaired still fails
// to replay, the failure is real and must surface, not loop.
func TestRepairedRecordingFailureSurfaces(t *testing.T) {
	const budget = 20_000
	s := NewSuite(budget)
	bad := corruptRecording("crc32", budget)
	s.recordings.install(traceKey{"crc32", budget}, recording{rec: bad, repaired: true})

	_, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion)
	if err == nil {
		t.Fatal("replay of a failing repaired recording reported success")
	}
	var se *ooo.SimError
	if !errors.As(err, &se) || se.Kind != ooo.FailCorrupt {
		t.Fatalf("err = %v, want a %s SimError", err, ooo.FailCorrupt)
	}
	if got := s.Metrics().LiveFallbacks; got != 0 {
		t.Errorf("LiveFallbacks = %d, want 0 (no second repair attempt)", got)
	}
}

// TestGetExpiredDeadline checks that a dead context aborts Get with the
// context's error and that the failure is not cached — a later call with
// a live context must succeed.
func TestGetExpiredDeadline(t *testing.T) {
	s := NewSuite(10_000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	_, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if r, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion); err != nil || r == nil {
		t.Fatalf("deadline failure was cached: retry got (%v, %v)", r, err)
	}
}

// TestReplayHonoursContext: every heliosd /v1/run miss and every
// /v1/suite cell replays a cached recording. A cancelled request must
// stop that replay with its context's error, and the error must not be
// cached: a live retry succeeds.
func TestReplayHonoursContext(t *testing.T) {
	s := NewSuite(10_000)
	if _, err := s.Recording(context.Background(), "crc32"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	if _, err := s.ReplayConfig(ctx, "crc32", cfg, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay under a cancelled context: err = %v, want context.Canceled", err)
	}
	if r, err := s.ReplayConfig(context.Background(), "crc32", cfg, 0); err != nil || r == nil {
		t.Fatalf("cancellation was cached: retry got (%v, %v)", r, err)
	}
}

// TestRunSourceCancelledMidRun runs the pipeline over an endless synthetic
// stream and cancels while it is running: the cycle loop must notice and
// return an error unwrapping to context.Canceled.
func TestRunSourceCancelledMidRun(t *testing.T) {
	var seq uint64
	endless := trace.Func(func() (emu.Retired, bool) {
		r := emu.Retired{
			Seq:    seq,
			PC:     0x1000,
			NextPC: 0x1000,
			Inst:   isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		}
		seq++
		return r, true
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()

	_, err := RunSource(ctx, "endless", ooo.DefaultConfig(fusion.ModeNoFusion), endless, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *ooo.SimError
	if !errors.As(err, &se) || se.Kind != ooo.FailContext {
		t.Fatalf("err = %v, want a %s SimError", err, ooo.FailContext)
	}
	if se.Snapshot.ROB.Cap == 0 {
		t.Error("context failure has no pipeline snapshot")
	}
}

// TestRunSourceChecksConfig: a machine that ooo.Config.Check rejects is
// an error naming the field from every core entry, never a panic in the
// caller's goroutine (ooo.New builds its tables before the run loop's
// recover is armed). Through the suite the error settles the key's
// flight like any other failure, so an identical call gets it at once,
// and nothing is recorded or repaired for it.
func TestRunSourceChecksConfig(t *testing.T) {
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.PhysRegs = 8
	w, _ := workloads.ByName("crc32")
	if _, err := RunConfig(context.Background(), w, cfg, 1_000); err == nil || !strings.Contains(err.Error(), "PhysRegs") {
		t.Fatalf("RunConfig: err = %v, want one naming PhysRegs", err)
	}

	s := NewSuite(1_000)
	_, first := s.ReplayConfig(context.Background(), "crc32", cfg, 0)
	if first == nil || !strings.Contains(first.Error(), "PhysRegs") {
		t.Fatalf("ReplayConfig: err = %v, want one naming PhysRegs", first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, hit, _, again := s.ReplayCached(ctx, "crc32", cfg, 0)
	if !hit || again == nil || again.Error() != first.Error() {
		t.Fatalf("second call: hit=%v err=%v, want a hit on %v", hit, again, first)
	}
	if m := s.Metrics(); m.TraceMisses != 0 || m.LiveFallbacks != 0 {
		t.Errorf("TraceMisses = %d, LiveFallbacks = %d; want 0 and 0", m.TraceMisses, m.LiveFallbacks)
	}
}

// TestCoalescedWaiterHonoursOwnDeadline: a caller that finds its key in
// flight waits under its own context. Its deadline ends the wait with
// context.DeadlineExceeded, reported as coalesced, and it never takes
// the leader's result.
func TestCoalescedWaiterHonoursOwnDeadline(t *testing.T) {
	s := NewSuite(10_000)
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	key := suiteKey{"crc32", cfg, 10_000}
	// Lead the key's flight, as a cold replay does, and settle it only
	// long after the waiter's deadline: a waiter that ignored its
	// deadline would return this result.
	if _, lead, _, _ := s.results.claim(context.Background(), key); !lead {
		t.Fatal("the test's claim did not lead")
	}
	leader := &Result{Workload: "crc32", Mode: fusion.ModeHelios}
	settle := time.AfterFunc(2*time.Second, func() { s.results.settle(key, leader, nil) })
	defer settle.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r, hit, coalesced, err := s.ReplayCached(ctx, "crc32", cfg, 0)
	if !errors.Is(err, context.DeadlineExceeded) || !coalesced || hit || r != nil {
		t.Fatalf("waiter: result=%v hit=%v coalesced=%v err=%v; want a coalesced DeadlineExceeded and no result", r != nil, hit, coalesced, err)
	}
}

// TestRecordingHonoursContext: a cold recording emulates under its
// caller's context, so a cancelled caller gets context.Canceled, and the
// failure is not stored: a later call with a live context records.
func TestRecordingHonoursContext(t *testing.T) {
	s := NewSuite(10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Recording(ctx, "crc32"); !errors.Is(err, context.Canceled) {
		t.Fatalf("recording under a cancelled context: err = %v, want context.Canceled", err)
	}
	rec, err := s.Recording(context.Background(), "crc32")
	if err != nil || rec == nil || rec.Len() == 0 {
		t.Fatalf("cancellation was stored: retry got (%v, %v)", rec, err)
	}
}
