package trace

import "helios/internal/emu"

// Recording is a materialized committed-path stream: the record-once half
// of record-once/replay-many. It is immutable after Record and safe for
// concurrent Replay from many goroutines.
type Recording struct {
	// Name identifies the traced workload (metadata only).
	Name string
	// MaxInsts is the instruction bound the recording was captured with
	// (0 = the stream ran to its natural end).
	MaxInsts uint64

	recs []emu.Retired
}

// Record drains src into a new Recording. If the stream ended on an
// emulation fault, the fault is returned and no recording is produced —
// a truncated trace must never masquerade as a complete one.
func Record(src Source) (*Recording, error) {
	var recs []emu.Retired
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return &Recording{recs: recs}, nil
}

// FromRecords builds a Recording directly from records (tests, decoders).
func FromRecords(name string, maxInsts uint64, recs []emu.Retired) *Recording {
	return &Recording{Name: name, MaxInsts: maxInsts, recs: recs}
}

// Len returns the number of recorded µ-ops.
func (r *Recording) Len() int { return len(r.recs) }

// At returns the i-th recorded µ-op.
func (r *Recording) At(i int) emu.Retired { return r.recs[i] }

// Records returns the recorded µ-ops in program order. The slice is the
// recording's own storage: callers must not modify it.
func (r *Recording) Records() []emu.Retired { return r.recs }

// Replay returns a fresh O(1) cursor over the recording. Cursors are
// independent; any number may be live at once.
func (r *Recording) Replay() *Cursor { return &Cursor{rec: r} }

// Cursor is a replay iterator over a Recording. It implements Source and
// never reports an error: only complete recordings exist.
type Cursor struct {
	rec *Recording
	pos int
}

// Next returns the next recorded µ-op.
func (c *Cursor) Next() (emu.Retired, bool) {
	if c.pos >= len(c.rec.recs) {
		return emu.Retired{}, false
	}
	r := c.rec.recs[c.pos]
	c.pos++
	return r, true
}

// Err always returns nil: a Recording is only constructed from a stream
// that ended cleanly.
func (c *Cursor) Err() error { return nil }
