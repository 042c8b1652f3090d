package ooo

import (
	"reflect"
	"testing"
	"unsafe"
)

// setNonZero writes a non-zero value of v's type through v, recursing
// into structs and arrays so every leaf is non-zero. Unsupported kinds
// fail the test: a new pUop field of an exotic type must extend this
// helper before it can ride through the arena.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// Unexported fields come back read-only even under an
			// addressable parent; re-derive a settable view of the same
			// memory.
			f := v.Field(i)
			setNonZero(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	default:
		t.Fatalf("setNonZero: unsupported kind %v (%v): extend the helper", v.Kind(), v.Type())
	}
}

// TestUopResetComplete pins the arena's recycling contract: reset must
// wipe EVERY pUop field back to its zero value, keeping only the arena
// bookkeeping (gen, bumped so stale generation-checked references miss;
// pooled, the double-release guard). The test writes every field —
// exported or not — non-zero via unsafe reflection, so a future field
// added to pUop cannot silently leak state into the next incarnation:
// either reset's whole-struct assignment wipes it (it does today, by
// construction) or this test fails the moment someone narrows reset to
// a field list.
func TestUopResetComplete(t *testing.T) {
	u := &pUop{}
	rv := reflect.ValueOf(u).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		// Unexported fields are not settable through the exported API;
		// re-derive an addressable view of the same memory.
		setNonZero(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
	}
	// The helper must have set gen itself to 1; remember it for the bump
	// check below.
	genBefore := u.gen

	u.pooled = false // release() requires a live µ-op
	var a uopArena
	a.release(u)

	keep := map[string]bool{"gen": true, "pooled": true}
	ty := rv.Type()
	for i := 0; i < rv.NumField(); i++ {
		name := ty.Field(i).Name
		f := reflect.NewAt(rv.Field(i).Type(), unsafe.Pointer(rv.Field(i).UnsafeAddr())).Elem()
		if keep[name] {
			if f.IsZero() {
				t.Errorf("reset cleared arena bookkeeping field %q", name)
			}
			continue
		}
		if !f.IsZero() {
			t.Errorf("reset leaked field %q across recycle: %v", name, f.Interface())
		}
	}
	if u.gen != genBefore+1 {
		t.Errorf("reset gen = %d, want %d (must bump so stale references miss)", u.gen, genBefore+1)
	}
	if !u.pooled {
		t.Error("reset must leave the µ-op marked pooled (double-release guard)")
	}
}

// TestUopSize pins the µ-op's layout on 64-bit targets. Every pipeline
// structure holds pUop pointers into arena chunks, so the struct's size
// is the arena's footprint per in-flight µ-op; a field added in the
// wrong place can grow it by a whole padding word unnoticed. A change
// that moves the size updates the pin and gives the reason.
func TestUopSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(pUop{}); got != 336 {
		t.Errorf("unsafe.Sizeof(pUop{}) = %d, pinned 336", got)
	}
}

// TestArenaRecycle checks the free-list round trip: a released µ-op is
// handed out again with a bumped generation and invalid register slots,
// and releasing it twice panics (the run loop converts that to a
// SimError).
func TestArenaRecycle(t *testing.T) {
	var a uopArena
	u := a.alloc()
	u.r.Seq = 42
	gen := u.gen
	a.release(u)

	u2 := a.alloc()
	if u2 != u {
		t.Fatalf("alloc after release returned a fresh µ-op, want the recycled one")
	}
	if u2.gen != gen+1 {
		t.Errorf("recycled gen = %d, want %d", u2.gen, gen+1)
	}
	if u2.r.Seq != 0 || u2.pooled {
		t.Errorf("recycled µ-op not reset: seq=%d pooled=%v", u2.r.Seq, u2.pooled)
	}
	for _, p := range u2.srcPhys {
		if p != invalidReg {
			t.Errorf("srcPhys not re-marked invalid: %v", u2.srcPhys)
		}
	}

	a.release(u2)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	a.release(u2)
}

// TestEventWheelGrow schedules completions past the wheel's horizon and
// checks that growing preserves every pending event at its cycle.
func TestEventWheelGrow(t *testing.T) {
	var a uopArena
	w := newEventWheel()
	horizon := uint64(len(w.slots))

	near := a.alloc()
	near.completeAt = 3
	w.schedule(near, near.completeAt, 0)

	far := a.alloc()
	far.completeAt = horizon + 5 // would alias cycle 5 without growth
	w.schedule(far, far.completeAt, 0)

	if uint64(len(w.slots)) <= horizon {
		t.Fatalf("wheel did not grow past horizon %d", horizon)
	}
	if evs := w.drain(3); len(evs) != 1 || evs[0].u != near {
		t.Errorf("drain(3) = %v, want the near µ-op", evs)
	}
	if evs := w.drain(5); len(evs) != 0 {
		t.Errorf("drain(5) = %v, want empty (far event must not alias)", evs)
	}
	if evs := w.drain(horizon + 5); len(evs) != 1 || evs[0].u != far {
		t.Errorf("drain(%d) = %v, want the far µ-op", horizon+5, evs)
	}
}

// TestEventWheelStaleGeneration checks the wheel's stale-reference
// protocol: a drained event whose generation no longer matches its µ-op
// (flushed, released, recycled mid-flight) must be detectable.
func TestEventWheelStaleGeneration(t *testing.T) {
	var a uopArena
	w := newEventWheel()
	u := a.alloc()
	u.completeAt = 7
	w.schedule(u, u.completeAt, 0)
	a.release(u) // flush path: the event is still in the wheel

	evs := w.drain(7)
	if len(evs) != 1 {
		t.Fatalf("drain(7) = %v, want one event", evs)
	}
	if evs[0].gen == evs[0].u.gen {
		t.Error("released µ-op's event still passes the generation check")
	}
}
