package obs

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func sampleEvent() *Event {
	return &Event{
		Seq: 7, PC: 0x80000010, Disasm: "ld a0, 0(a1)",
		Fetch: 10, Decode: 10, Rename: 11, Dispatch: 11,
		Issue: 13, Complete: 16, Retire: 20,
		Fused: "ldp", TailSeq: 8, TailPC: 0x80000014,
		PairDistance: 1, PairCategory: "same-base", Predicted: true,
	}
}

// TestPipeViewFormat pins the exact O3PipeView record shape Konata
// parses: seven lines, gem5 field order, squashed µ-ops retiring at 0.
func TestPipeViewFormat(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{PipeView: &buf}
	o.Retire(sampleEvent())

	sq := sampleEvent()
	sq.Retire = 0
	sq.Squashed = true
	sq.SquashCycle = 21
	o.Squash(sq)

	want := "O3PipeView:fetch:10:0x80000010:0:1:ld a0, 0(a1)\n" +
		"O3PipeView:decode:10\n" +
		"O3PipeView:rename:11\n" +
		"O3PipeView:dispatch:11\n" +
		"O3PipeView:issue:13\n" +
		"O3PipeView:complete:16\n" +
		"O3PipeView:retire:20:store:0\n" +
		"O3PipeView:fetch:10:0x80000010:0:2:ld a0, 0(a1)\n" +
		"O3PipeView:decode:10\n" +
		"O3PipeView:rename:11\n" +
		"O3PipeView:dispatch:11\n" +
		"O3PipeView:issue:13\n" +
		"O3PipeView:complete:16\n" +
		"O3PipeView:retire:0:store:0\n"
	if got := buf.String(); got != want {
		t.Errorf("pipeview output:\n%s\nwant:\n%s", got, want)
	}
	if err := o.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

// TestEventsNDJSON checks one event marshals to a single JSON line with
// the fusion metadata present and zero-value optionals omitted.
func TestEventsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{Events: &buf}
	o.Retire(sampleEvent())

	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("want exactly one newline-terminated line, got %q", out)
	}
	for _, frag := range []string{
		`"seq":7`, `"fused":"ldp"`, `"tail_pc":2147483668`,
		`"pair_category":"same-base"`, `"predicted":true`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("event line missing %s: %s", frag, out)
		}
	}
	if strings.Contains(out, "squashed") || strings.Contains(out, "mispredicted") {
		t.Errorf("zero-value optional fields not omitted: %s", out)
	}
}

// TestSampleDeltas checks the interval CSV: header once, counters
// differenced per interval, occupancies passed through.
func TestSampleDeltas(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{Metrics: &buf, SampleEvery: 100}

	o.Sample(IntervalStats{Cycle: 100, Insts: 80, Uops: 90, Branches: 10, ROBOcc: 12})
	o.Sample(IntervalStats{Cycle: 200, Insts: 200, Uops: 220, Branches: 25,
		BranchMispredicts: 3, Flushes: 3, ROBOcc: 31})

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	row1 := strings.Split(lines[1], ",")
	row2 := strings.Split(lines[2], ",")
	if len(header) != len(row1) || len(header) != len(row2) {
		t.Fatalf("column count mismatch: header %d, rows %d/%d", len(header), len(row1), len(row2))
	}
	col := func(row []string, name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q in header %v", name, header)
		return ""
	}
	// First interval differences against zero.
	if got := col(row1, "insts"); got != "80" {
		t.Errorf("row1 insts = %s, want 80", got)
	}
	if got := col(row1, "ipc_milli"); got != "800" {
		t.Errorf("row1 ipc_milli = %s, want 800", got)
	}
	// Second interval is a true delta; occupancy is instantaneous.
	if got := col(row2, "insts"); got != "120" {
		t.Errorf("row2 insts = %s, want 120", got)
	}
	if got := col(row2, "ipc_milli"); got != "1200" {
		t.Errorf("row2 ipc_milli = %s, want 1200", got)
	}
	if got := col(row2, "branch_mispredicts"); got != "3" {
		t.Errorf("row2 branch_mispredicts = %s, want 3", got)
	}
	if got := col(row2, "mpki_milli"); got != "25000" {
		t.Errorf("row2 mpki_milli = %s, want 25000", got)
	}
	if got := col(row2, "rob_occ"); got != "31" {
		t.Errorf("row2 rob_occ = %s, want 31", got)
	}
	if got := col(row2, "flushes"); got != "3" {
		t.Errorf("row2 flushes = %s, want 3", got)
	}
}

// TestIntervalRowCarriesEveryField fills every IntervalStats field with
// a distinct value and finds each one in Row's CSV against a zero
// previous snapshot, where every delta is the value itself: a field
// added without a column fails here.
func TestIntervalRowCarriesEveryField(t *testing.T) {
	var s IntervalStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("IntervalStats.%s is not a uint64: extend this test", v.Type().Field(i).Name)
		}
		v.Field(i).SetUint(uint64(1001 + i))
	}
	row := s.Row(IntervalStats{})
	if len(row) != len(s.Header()) {
		t.Fatalf("Row has %d columns, Header %d", len(row), len(s.Header()))
	}
	for i := 0; i < v.NumField(); i++ {
		if want := strconv.Itoa(1001 + i); !slices.Contains(row, want) {
			t.Errorf("IntervalStats.%s = %s is missing from Row %v", v.Type().Field(i).Name, want, row)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("sink full")
}

// TestStickyError checks the first write failure latches in Err() and
// suppresses all further output attempts.
func TestStickyError(t *testing.T) {
	w := &failWriter{}
	o := &Observer{PipeView: w, Events: w, Metrics: w}
	o.Retire(sampleEvent())
	if o.Err() == nil {
		t.Fatal("write error not latched")
	}
	n := w.n
	o.Retire(sampleEvent())
	o.Sample(IntervalStats{Cycle: 1})
	if w.n != n {
		t.Errorf("observer kept writing after error: %d -> %d writes", n, w.n)
	}
}
