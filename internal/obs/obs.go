// Package obs is the pipeline observability layer: per-µop event
// tracing in NDJSON and gem5 O3PipeView form (loadable in the Konata
// visualizer), plus a cycle-bucketed interval metrics sampler. It turns
// the end-of-run aggregate counters of ooo.Stats into time-resolved,
// per-event data so fusion coverage collapses, flush storms and port
// stalls can be localized within a run.
//
// The layer is always available and off by default. The pipeline holds
// a single *Observer pointer that is nil when observability is
// disabled; every hook site is a plain nil check on a concrete type —
// no interface dispatch, no allocation — so the disabled cost is a
// predicted-not-taken branch (pinned by BenchmarkPipelineObsOff).
//
// All output is a deterministic function of the simulated stream and
// configuration: events are emitted in commit/squash order, interval
// rows at fixed cycle boundaries, and nothing reads wall clocks. Two
// replays of the same recording produce byte-identical traces, which
// heliosvet's determinism rules and the obs determinism test enforce.
package obs

import (
	"io"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"helios/internal/isa"
)

// Event is the full pipeline lifecycle of one µ-op, emitted when it
// retires or is squashed. Stage fields hold the cycle the µ-op reached
// the stage, 0 when it never did (the run's cycle counter starts at 1,
// so 0 is unambiguous). A fused µ-op carries the metadata of its pair:
// the kind, the tail nucleus's identity, the address-category verdict
// and whether the Helios predictor proposed the pairing.
type Event struct {
	Seq    uint64 `json:"seq"`
	PC     uint64 `json:"pc"`
	Disasm string `json:"disasm"`

	Fetch    uint64 `json:"fetch"`
	Decode   uint64 `json:"decode"`
	Rename   uint64 `json:"rename"`
	Dispatch uint64 `json:"dispatch"`
	Issue    uint64 `json:"issue"`
	Complete uint64 `json:"complete"`
	Retire   uint64 `json:"retire"` // 0 when squashed

	Squashed    bool   `json:"squashed,omitempty"`
	SquashCycle uint64 `json:"squash_cycle,omitempty"`

	Mispredicted bool `json:"mispredicted,omitempty"` // branch mispredict

	// Fusion metadata (zero values when the µ-op is not fused).
	Fused        string `json:"fused,omitempty"` // idiom | ldp | stp
	TailSeq      uint64 `json:"tail_seq,omitempty"`
	TailPC       uint64 `json:"tail_pc,omitempty"`
	PairDistance int    `json:"pair_distance,omitempty"`
	PairCategory string `json:"pair_category,omitempty"`
	Predicted    bool   `json:"predicted,omitempty"` // pairing came from the Helios FP
	Unfused      bool   `json:"unfused,omitempty"`   // fusion was undone before retire
}

// DefaultInterval is the interval sampler period, in cycles, that the
// drivers use when a caller asks for interval metrics without naming
// one: heliossim's -interval default and heliosd's obs_interval: 0.
const DefaultInterval = 10000

// Observer is a per-run observability sink. Attach one via
// ooo.Config.Obs; any nil writer disables that output. Observer is not
// safe for concurrent use — one pipeline, one observer, as with the
// rest of the per-run simulation state.
type Observer struct {
	// PipeView receives the gem5 O3PipeView-compatible trace (one
	// multi-line record per retired or squashed µ-op), which Konata
	// renders directly.
	PipeView io.Writer

	// Events receives one JSON object per µ-op event, newline-delimited.
	Events io.Writer

	// Metrics receives the interval time series as CSV (header first).
	Metrics io.Writer

	// SampleEvery is the interval sampler period in cycles (0 disables
	// sampling even when Metrics is set).
	SampleEvery uint64

	sn          uint64 // monotone O3PipeView record id
	wroteHeader bool
	prev        IntervalStats
	err         error  // first write error; output stops once set
	buf         []byte // render buffer, reused by every record and row
	disasm      map[uint64]disasmEntry
	cycles      cycleMemo
}

// disasmEntry is one PC's rendered instruction; inst is kept so a PC
// that holds a different instruction renders again.
type disasmEntry struct {
	inst isa.Inst
	text string
}

// Disasm returns inst's assembly text (isa.Inst.String), rendering it
// once per PC for the run. The pipeline fills Event.Disasm through it.
func (o *Observer) Disasm(pc uint64, inst isa.Inst) string {
	if e, ok := o.disasm[pc]; ok && e.inst == inst {
		return e.text
	}
	if o.disasm == nil {
		o.disasm = make(map[uint64]disasmEntry)
	}
	text := inst.String()
	o.disasm[pc] = disasmEntry{inst, text}
	return text
}

// Err returns the first write error the observer encountered, if any.
// Hook sites cannot return errors (they sit in the cycle loop), so
// failures latch here and the driver surfaces them after the run.
func (o *Observer) Err() error { return o.err }

// Retire records a µ-op leaving the ROB. ev.Retire must be set to the
// commit cycle.
func (o *Observer) Retire(ev *Event) { o.record(ev) }

// Squash records a µ-op killed by a flush. ev.Squashed/SquashCycle must
// be set; ev.Retire stays 0, which is how O3PipeView marks squashes.
func (o *Observer) Squash(ev *Event) { o.record(ev) }

func (o *Observer) record(ev *Event) {
	if o.err != nil {
		return
	}
	if o.PipeView != nil {
		o.sn++
		o.write(o.PipeView, appendPipeView(o.buf[:0], &o.cycles, ev, o.sn))
	}
	if o.Events != nil && o.err == nil {
		o.write(o.Events, appendEvent(o.buf[:0], &o.cycles, ev))
	}
}

// write hands b to w in one Write, keeps b's storage for the next
// record (io.Writer must not retain it) and latches the first error.
func (o *Observer) write(w io.Writer, b []byte) {
	o.buf = b
	if _, err := w.Write(b); err != nil {
		o.err = err
	}
}

// cycleMemo keeps recent decimal renderings of cycle numbers, one per
// slot: both streams repeat an event's stage cycles, and µ-ops fetched,
// renamed or retired together share them.
type cycleMemo [16]struct {
	v uint64
	n uint8 // digits in d; 0 marks an empty slot
	d [20]byte
}

// append appends v in decimal, rendering it only when its slot holds
// another value.
func (m *cycleMemo) append(b []byte, v uint64) []byte {
	e := &m[v%uint64(len(m))]
	if e.n == 0 || e.v != v {
		e.v, e.n = v, uint8(len(strconv.AppendUint(e.d[:0], v, 10)))
	}
	return append(b, e.d[:e.n]...)
}

// appendPipeView appends one gem5 O3PipeView record with id sn. Stage
// ticks are raw cycle numbers (Konata only needs a consistent unit);
// unreached stages and squashed retires are 0, exactly as gem5 emits
// them.
func appendPipeView(b []byte, m *cycleMemo, ev *Event, sn uint64) []byte {
	b = m.append(append(b, "O3PipeView:fetch:"...), ev.Fetch)
	b = append(b, ":0x"...)
	b = appendHex08(b, ev.PC)
	b = append(b, ":0:"...)
	b = strconv.AppendUint(b, sn, 10)
	b = append(b, ':')
	b = append(b, ev.Disasm...)
	for _, st := range [...]struct {
		tag string
		at  uint64
	}{
		{"\nO3PipeView:decode:", ev.Decode},
		{"\nO3PipeView:rename:", ev.Rename},
		{"\nO3PipeView:dispatch:", ev.Dispatch},
		{"\nO3PipeView:issue:", ev.Issue},
		{"\nO3PipeView:complete:", ev.Complete},
		{"\nO3PipeView:retire:", ev.Retire},
	} {
		b = m.append(append(b, st.tag...), st.at)
	}
	return append(b, ":store:0\n"...)
}

// appendHex08 appends v in lowercase hex, zero-padded to at least eight
// digits (fmt's %08x).
func appendHex08(b []byte, v uint64) []byte {
	if n := max((bits.Len64(v)+3)/4, 1); n < 8 {
		b = append(b, "0000000"[:8-n]...)
	}
	return strconv.AppendUint(b, v, 16)
}

// appendEvent appends ev as one NDJSON line, byte for byte what
// encoding/json writes for Event (fields in declaration order,
// omitempty as tagged) plus the newline; FuzzEventEncoding holds it to
// that reference.
func appendEvent(b []byte, m *cycleMemo, ev *Event) []byte {
	b = appendUintField(b, `{"seq":`, ev.Seq)
	b = appendUintField(b, `,"pc":`, ev.PC)
	b = appendString(append(b, `,"disasm":`...), ev.Disasm)
	b = m.append(append(b, `,"fetch":`...), ev.Fetch)
	b = m.append(append(b, `,"decode":`...), ev.Decode)
	b = m.append(append(b, `,"rename":`...), ev.Rename)
	b = m.append(append(b, `,"dispatch":`...), ev.Dispatch)
	b = m.append(append(b, `,"issue":`...), ev.Issue)
	b = m.append(append(b, `,"complete":`...), ev.Complete)
	b = m.append(append(b, `,"retire":`...), ev.Retire)
	if ev.Squashed {
		b = append(b, `,"squashed":true`...)
	}
	if ev.SquashCycle != 0 {
		b = m.append(append(b, `,"squash_cycle":`...), ev.SquashCycle)
	}
	if ev.Mispredicted {
		b = append(b, `,"mispredicted":true`...)
	}
	if ev.Fused != "" {
		b = appendString(append(b, `,"fused":`...), ev.Fused)
	}
	if ev.TailSeq != 0 {
		b = appendUintField(b, `,"tail_seq":`, ev.TailSeq)
	}
	if ev.TailPC != 0 {
		b = appendUintField(b, `,"tail_pc":`, ev.TailPC)
	}
	if ev.PairDistance != 0 {
		b = strconv.AppendInt(append(b, `,"pair_distance":`...), int64(ev.PairDistance), 10)
	}
	if ev.PairCategory != "" {
		b = appendString(append(b, `,"pair_category":`...), ev.PairCategory)
	}
	if ev.Predicted {
		b = append(b, `,"predicted":true`...)
	}
	if ev.Unfused {
		b = append(b, `,"unfused":true`...)
	}
	return append(b, "}\n"...)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendString appends s as a JSON string exactly as encoding/json
// quotes it: `"` and `\` backslashed, \b \f \n \r \t short-escaped,
// other control bytes and the HTML-sensitive <, > and & as \u00XX,
// U+2028 and U+2029 as \u202X, and each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
