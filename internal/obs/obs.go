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
	"encoding/json"
	"fmt"
	"io"
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
	err         error // first write error; output stops once set
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
		o.writePipeView(ev)
	}
	if o.Events != nil && o.err == nil {
		b, err := json.Marshal(ev)
		if err != nil {
			o.err = err
			return
		}
		if _, err := o.Events.Write(append(b, '\n')); err != nil {
			o.err = err
		}
	}
}

// writePipeView emits one gem5 O3PipeView record. Stage ticks are raw
// cycle numbers (Konata only needs a consistent unit); unreached stages
// and squashed retires are 0, exactly as gem5 emits them.
func (o *Observer) writePipeView(ev *Event) {
	o.sn++
	_, err := fmt.Fprintf(o.PipeView,
		"O3PipeView:fetch:%d:0x%08x:0:%d:%s\n"+
			"O3PipeView:decode:%d\n"+
			"O3PipeView:rename:%d\n"+
			"O3PipeView:dispatch:%d\n"+
			"O3PipeView:issue:%d\n"+
			"O3PipeView:complete:%d\n"+
			"O3PipeView:retire:%d:store:0\n",
		ev.Fetch, ev.PC, o.sn, ev.Disasm,
		ev.Decode, ev.Rename, ev.Dispatch, ev.Issue, ev.Complete, ev.Retire)
	if err != nil {
		o.err = err
	}
}
