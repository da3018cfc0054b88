package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// StepRecord is one rank's telemetry for one MD step: wall time, the
// per-phase time decomposition, and the step's counter deltas. One
// JSONL line per (step, rank) pair keeps emission synchronization-free
// — ranks proceed at their own pace, and per-rank imbalance over time
// falls out of the records instead of being averaged away.
type StepRecord struct {
	Step   int   `json:"step"`
	Rank   int   `json:"rank"`
	WallNs int64 `json:"wall_ns"`
	// TNs is the record's monotonic timestamp: nanoseconds since the
	// run started. History consumers align records by it instead of
	// assuming a fixed step cadence.
	TNs      int64            `json:"t_ns"`
	PhaseNs  map[string]int64 `json:"phase_ns,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// StepSink consumes step records in-process, synchronously with the
// emitting rank — the hook the flight recorder hangs off the writer,
// so disk, stream, and retained history all see the same records.
// ObserveStep receives the record by value; map fields are the
// emitter's reusable scratch and must be copied, not retained, before
// the call returns.
type StepSink interface {
	ObserveStep(rec StepRecord)
}

// StepWriter serializes telemetry records as JSON Lines into an
// optional file sink and an optional live StepTee — the same encoded
// line goes to both, so on-disk logs and streamed /steps records can
// never disagree. Writes from concurrent ranks are ordered by an
// internal mutex; sink errors are sticky and reported once by Err, so
// per-step call sites stay unconditional.
type StepWriter struct {
	mu   sync.Mutex
	w    io.Writer // may be nil: tee-only writer
	tee  *StepTee  // may be nil: file-only writer
	sink StepSink  // may be nil: set once via SetSink before the run
	buf  bytes.Buffer
	enc  *json.Encoder
	err  error
}

// NewStepWriter wraps w (typically a file) as a JSONL sink.
func NewStepWriter(w io.Writer) *StepWriter { return NewStepWriterTee(w, nil) }

// NewStepWriterTee wraps an optional file sink and an optional live
// tee. With w nil, records exist only as streamed lines — and only
// while someone subscribes: Active gates the emitters, so an idle
// tee-only writer costs nothing per step (no encoding, no
// allocation).
func NewStepWriterTee(w io.Writer, tee *StepTee) *StepWriter {
	s := &StepWriter{w: w, tee: tee}
	s.enc = json.NewEncoder(&s.buf)
	return s
}

// SetSink attaches an in-process record consumer (typically the
// flight recorder). Call before the run starts: the field is read
// without synchronization on the emit path.
func (s *StepWriter) SetSink(sink StepSink) {
	if s == nil {
		return
	}
	s.sink = sink
}

// Active reports whether a write would go anywhere: a file sink is
// configured, an in-process sink is attached, or a live subscriber is
// attached to the tee. Emitters check it each step and skip record
// construction while it is false; their per-step deltas are derived
// either way, so a subscriber that joins mid-run sees per-step values
// from its first full step, not cumulative totals.
func (s *StepWriter) Active() bool {
	return s != nil && (s.w != nil || s.sink != nil || s.tee.Active())
}

// WriteStep appends one step record line. The in-process sink, when
// attached, observes the record first and without JSON encoding — the
// path stays allocation-free when neither a file nor a live
// subscriber needs the encoded line.
func (s *StepWriter) WriteStep(rec StepRecord) {
	if s == nil {
		return
	}
	if s.sink != nil {
		s.sink.ObserveStep(rec)
	}
	if s.w == nil && !s.tee.Active() {
		return
	}
	s.WriteValue(rec)
}

// WriteValue appends an arbitrary record line — used for the final
// registry-snapshot line ({"snapshot": …}) after the per-step stream.
func (s *StepWriter) WriteValue(v any) {
	if s == nil || (s.w == nil && !s.tee.Active()) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	line := s.buf.Bytes()
	if s.w != nil && s.err == nil {
		if _, err := s.w.Write(line); err != nil {
			s.err = err
		}
	}
	s.tee.Publish(line)
}

// Err returns the first sink write error, if any. Tee subscribers
// cannot fail a writer — a slow one drops lines and counts them.
func (s *StepWriter) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
