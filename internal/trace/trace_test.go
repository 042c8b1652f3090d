package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"strings"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/trace"
	"helios/internal/workloads"
)

// TestReplayBitIdentical is the fidelity property behind the whole
// record-once/replay-many design: for every registered workload, a
// Recording replay is bit-identical to the live emulator stream, and a
// second replay is bit-identical to the first.
func TestReplayBitIdentical(t *testing.T) {
	const budget = 20_000
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rec, err := w.Record(budget)
			if err != nil {
				t.Fatal(err)
			}
			live, err := w.Trace(budget)
			if err != nil {
				t.Fatal(err)
			}
			c1, c2 := rec.Replay(), rec.Replay()
			for i := 0; ; i++ {
				lr, lok := live.Next()
				r1, ok1 := c1.Next()
				r2, ok2 := c2.Next()
				if lok != ok1 || lok != ok2 {
					t.Fatalf("length diverges at %d: live=%v replay=%v replay2=%v", i, lok, ok1, ok2)
				}
				if !lok {
					break
				}
				if r1 != lr {
					t.Fatalf("replay diverges from live at %d:\n%+v\n%+v", i, r1, lr)
				}
				if r2 != r1 {
					t.Fatalf("second replay diverges at %d", i)
				}
			}
			if err := live.Err(); err != nil {
				t.Fatal(err)
			}
			if rec.Len() == 0 {
				t.Fatal("empty recording")
			}
		})
	}
}

// TestFileRoundTrip checks WriteTo/ReadFrom preserve every record and the
// metadata header.
func TestFileRoundTrip(t *testing.T) {
	w, ok := workloads.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	rec, err := w.Record(5_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer holds %d", n, buf.Len())
	}
	got, err := trace.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rec.Name || got.MaxInsts != rec.MaxInsts || got.Len() != rec.Len() {
		t.Fatalf("header mismatch: got (%q,%d,%d), want (%q,%d,%d)",
			got.Name, got.MaxInsts, got.Len(), rec.Name, rec.MaxInsts, rec.Len())
	}
	for i := 0; i < rec.Len(); i++ {
		if got.At(i) != rec.At(i) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, got.At(i), rec.At(i))
		}
	}
}

// TestReadFromErrors exercises the corrupt/truncated input paths.
func TestReadFromErrors(t *testing.T) {
	w, _ := workloads.ByName("crc32")
	rec, err := w.Record(500)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("not-gzip", func(t *testing.T) {
		if _, err := trace.ReadFrom(bytes.NewReader(make([]byte, 64))); err == nil {
			t.Error("want error on non-gzip input")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := trace.ReadFrom(bytes.NewReader(nil)); err == nil {
			t.Error("want error on empty input")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		_, err := trace.ReadFrom(bytes.NewReader(valid[:len(valid)/2]))
		if err == nil {
			t.Error("want error on truncated file")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		if _, err := trace.ReadFrom(gzipped([]byte("NOPE\x01\x00\x00\x00"))); err == nil ||
			!strings.Contains(err.Error(), "magic") {
			t.Errorf("want bad-magic error, got %v", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		if _, err := trace.ReadFrom(gzipped([]byte{'H', 'T', 'R', 'C', 0xff, 0x7f, 0, 0})); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Errorf("want bad-version error, got %v", err)
		}
	})
	t.Run("version-1", func(t *testing.T) {
		// Version 1 records were 55 bytes: the header check must reject
		// such a file rather than misread its records.
		payload := rawPayload(t, valid)
		binary.LittleEndian.PutUint16(payload[4:], 1)
		if _, err := trace.ReadFrom(gzipped(payload)); err == nil ||
			!strings.Contains(err.Error(), "unsupported file version 1") {
			t.Errorf("want version-1 rejection, got %v", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		if _, err := trace.ReadFrom(gzipped([]byte{'H', 'T'})); err == nil {
			t.Error("want error on truncated header")
		}
	})
}

// gzipped compresses raw bytes so corrupt payloads still pass the gzip layer.
func gzipped(payload []byte) *bytes.Buffer {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(payload)
	zw.Close()
	return &buf
}

// TestLiveSurfacesEmulationFault verifies the satellite fix: an emulator
// fault is reported through Err instead of silently ending the stream,
// and Record refuses to produce a truncated recording.
func TestLiveSurfacesEmulationFault(t *testing.T) {
	// Jump into zeroed memory: the fetch of an all-zero word is an
	// invalid instruction and must fault.
	prog, err := asm.Assemble(`
_start:
	li t0, 1
	li t1, 2
	add t2, t0, t1
	li t3, 0x90000
	jr t3
`)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewLive(emu.New(prog), 0)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if src.Err() == nil {
		t.Fatal("Err() = nil, want the emulation fault")
	}
	if n == 0 {
		t.Error("the pre-fault prefix should have streamed")
	}
	if _, err := trace.Record(trace.NewLive(emu.New(prog), 0)); err == nil {
		t.Error("Record must refuse a faulting stream")
	}
}

// TestLimit bounds a source without hiding its error.
func TestLimit(t *testing.T) {
	w, _ := workloads.ByName("sha")
	rec, err := w.Record(1_000)
	if err != nil {
		t.Fatal(err)
	}
	lim := trace.Limit(rec.Replay(), 100)
	n := 0
	for {
		if _, ok := lim.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Errorf("Limit yielded %d, want 100", n)
	}
	if err := lim.Err(); err != nil {
		t.Fatal(err)
	}
	if got := trace.Limit(rec.Replay(), 0); got == nil {
		t.Error("Limit(_, 0) must pass the source through")
	}
}

// TestFuncAdapter wraps a closure as a Source.
func TestFuncAdapter(t *testing.T) {
	i := 0
	src := trace.Func(func() (emu.Retired, bool) {
		if i >= 3 {
			return emu.Retired{}, false
		}
		r := emu.Retired{Seq: uint64(i), Inst: isa.Inst{Op: isa.OpADDI}}
		i++
		return r, true
	})
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 || src.Err() != nil {
		t.Errorf("Func adapter: n=%d err=%v", n, src.Err())
	}
}
