package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"helios/internal/isa"
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

	// The PC field is %08x: zero-padded to eight digits, wider PCs in full.
	for _, tc := range []struct {
		pc   uint64
		want string
	}{
		{0, "O3PipeView:fetch:10:0x00000000:0:1:"},
		{0x10, "O3PipeView:fetch:10:0x00000010:0:1:"},
		{0x1_2345_6789, "O3PipeView:fetch:10:0x123456789:0:1:"},
		{1<<64 - 1, "O3PipeView:fetch:10:0xffffffffffffffff:0:1:"},
	} {
		ev := sampleEvent()
		ev.PC = tc.pc
		if got := string(appendPipeView(nil, new(cycleMemo), ev, 1)); !strings.HasPrefix(got, tc.want) {
			t.Errorf("pc %#x: record starts %q, want %q", tc.pc, got[:len(tc.want)], tc.want)
		}
	}
}

// TestDisasmPerPC: the observer renders each PC's instruction once, and
// a PC that now holds a different instruction (code rewritten at run
// time) renders again.
func TestDisasmPerPC(t *testing.T) {
	var o Observer
	ld := isa.Inst{Op: isa.OpLD, Rd: isa.A0, Rs1: isa.A1, Imm: 8}
	add := isa.Inst{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2}
	for _, tc := range []struct {
		pc   uint64
		inst isa.Inst
	}{{0x100, ld}, {0x100, ld}, {0x104, add}, {0x100, add}, {0x100, ld}} {
		if got, want := o.Disasm(tc.pc, tc.inst), tc.inst.String(); got != want {
			t.Errorf("Disasm(%#x, %v) = %q, want %q", tc.pc, tc.inst, got, want)
		}
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
// a distinct value and finds each one in the CSV row against a zero
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
	row := strings.Split(strings.TrimSuffix(string(s.appendRow(nil, &IntervalStats{})), "\n"), ",")
	header := strings.Split(strings.TrimSuffix(intervalHeader, "\n"), ",")
	if len(row) != len(header) {
		t.Fatalf("row has %d columns, header %d", len(row), len(header))
	}
	for i := 0; i < v.NumField(); i++ {
		if want := strconv.Itoa(1001 + i); !slices.Contains(row, want) {
			t.Errorf("IntervalStats.%s = %s is missing from row %v", v.Type().Field(i).Name, want, row)
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

// FuzzEventEncoding holds both per-event renderers to their references:
// the NDJSON line must be exactly json.Marshal(ev) plus a newline, and
// the O3PipeView record exactly what fmt renders for gem5's format.
func FuzzEventEncoding(f *testing.F) {
	add := func(ev *Event) {
		f.Add(ev.Seq, ev.PC, ev.Disasm, ev.Fetch, ev.Decode, ev.Rename, ev.Dispatch,
			ev.Issue, ev.Complete, ev.Retire, ev.Squashed, ev.SquashCycle, ev.Mispredicted,
			ev.Fused, ev.TailSeq, ev.TailPC, ev.PairDistance, ev.PairCategory, ev.Predicted, ev.Unfused)
	}
	add(&Event{}) // every optional field zero
	add(&Event{Seq: 1<<64 - 1, PC: 1<<64 - 1, Disasm: "jal ra, -2048", Fetch: 1, Decode: 2,
		Rename: 3, Dispatch: 4, Issue: 5, Complete: 6, Retire: 7,
		Squashed: true, SquashCycle: 9, Mispredicted: true, Fused: "stp", TailSeq: 2,
		TailPC: 1 << 40, PairDistance: -3, PairCategory: "nextline", Predicted: true, Unfused: true})
	for _, s := range []string{
		`"`, `\`, "<", ">", "&", "a<b>&c", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"é", "日本", "\u2028\u2029", "\xff", "ok\xc3", "\U0001F600",
	} {
		add(&Event{PC: 0x1_0000_0000, Disasm: s, Fused: s, PairCategory: s, PairDistance: 1})
	}
	f.Fuzz(func(t *testing.T, seq, pc uint64, disasm string,
		fetch, decode, rename, dispatch, issue, complete, retire uint64,
		squashed bool, squashCycle uint64, mispredicted bool, fused string,
		tailSeq, tailPC uint64, pairDistance int, pairCategory string, predicted, unfused bool) {
		ev := &Event{Seq: seq, PC: pc, Disasm: disasm,
			Fetch: fetch, Decode: decode, Rename: rename, Dispatch: dispatch,
			Issue: issue, Complete: complete, Retire: retire,
			Squashed: squashed, SquashCycle: squashCycle, Mispredicted: mispredicted,
			Fused: fused, TailSeq: tailSeq, TailPC: tailPC, PairDistance: pairDistance,
			PairCategory: pairCategory, Predicted: predicted, Unfused: unfused}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		wantPV := fmt.Sprintf("O3PipeView:fetch:%d:0x%08x:0:%d:%s\n"+
			"O3PipeView:decode:%d\nO3PipeView:rename:%d\nO3PipeView:dispatch:%d\n"+
			"O3PipeView:issue:%d\nO3PipeView:complete:%d\nO3PipeView:retire:%d:store:0\n",
			fetch, pc, seq, disasm, decode, rename, dispatch, issue, complete, retire)
		// Twice on one memo: the first pass fills it, the second reads it.
		var m cycleMemo
		for pass := 0; pass < 2; pass++ {
			if got := appendEvent(nil, &m, ev); string(got) != string(want)+"\n" {
				t.Errorf("pass %d: NDJSON line\n got  %s\n want %s", pass, got, want)
			}
			if got := appendPipeView(nil, &m, ev, seq); string(got) != wantPV {
				t.Errorf("pass %d: O3PipeView record\n got  %q\n want %q", pass, got, wantPV)
			}
		}
	})
}
