// Package obs is the telemetry layer of the parallel stack: per-rank
// phase span timelines, a metrics registry (counters, gauges,
// fixed-bucket histograms), per-step JSONL emission, and Chrome
// trace-event export — the instrumentation behind the paper's
// per-phase runtime decomposition (§5) and the load-imbalance evidence
// scalability claims rest on.
//
// The design constraint is that telemetry must never perturb what it
// measures. All hot-path entry points are nil-safe and branch-cheap: a
// nil *RankRecorder (what a nil *Recorder hands out) makes
// StartSpan/End complete no-ops with zero allocations, so the
// simulation loops carry their instrumentation unconditionally and the
// bit-identical determinism and 0 allocs/op guarantees of the halo
// exchange are preserved whether telemetry is on or off (asserted by
// tests in package parmd). Enabled spans write into preallocated
// per-rank ring buffers — recording cost is two monotonic clock reads
// and one ring store, still allocation-free.
//
// Ring slots and the per-phase accumulators are written and read with
// atomic word operations, so a live reader (the telemetry HTTP server
// of obs/serve) can snapshot PhaseStats, per-rank phase totals, and
// the span rings while ranks are still recording: publication order
// (slot words first, then the ring counter) plus a recheck of the
// counter after copying lets the reader discard the slots a concurrent
// writer may have been overwriting, and everything else is a plain
// atomic load.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxPhases bounds the process-wide phase table. Phases are a small
// fixed vocabulary (step phases of the MD loop plus one per force
// term), so a tight bound lets per-rank accumulators be flat arrays.
const MaxPhases = 64

var (
	phaseMu    sync.Mutex
	phaseNames []string
)

// Phase interns a phase name and returns its dense ID. Interning is
// idempotent (same name, same ID) and meant for initialization paths —
// hot loops hold the returned PhaseID, never the string. It panics
// when the table overflows MaxPhases, which would mean phase names are
// being generated per step instead of per program.
func Phase(name string) PhaseID {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	for i, n := range phaseNames {
		if n == name {
			return PhaseID(i)
		}
	}
	if len(phaseNames) >= MaxPhases {
		panic(fmt.Sprintf("obs: more than %d phases registered (interning per-step names?)", MaxPhases))
	}
	phaseNames = append(phaseNames, name)
	return PhaseID(len(phaseNames) - 1)
}

// PhaseID identifies an interned phase name.
type PhaseID uint8

// Name returns the interned name of the phase.
func (p PhaseID) Name() string {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase#%d", int(p))
}

// numPhases returns the current size of the phase table.
func numPhases() int {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	return len(phaseNames)
}

// span is one recorded interval in its ring slot: start nanoseconds
// since the recorder's epoch, duration, and the packed step + phase.
// Fields are atomic words so a live exporter can read slots while the
// owning rank overwrites them (tearing between fields is handled by
// the ring-counter recheck in snapshotSpans, not per slot).
type span struct {
	start atomic.Int64
	dur   atomic.Int64
	meta  atomic.Int64 // step<<8 | phase
}

// packSpanMeta and its inverse move (step, phase) through one atomic
// word. The arithmetic right shift recovers negative steps (-1 tags
// pre-loop work).
func packSpanMeta(step int32, phase PhaseID) int64 {
	return int64(step)<<8 | int64(phase)
}

func unpackSpanMeta(meta int64) (step int32, phase PhaseID) {
	return int32(meta >> 8), PhaseID(uint8(meta))
}

// SpanCopy is one span read out of a ring by a live snapshot.
type SpanCopy struct {
	StartNs int64
	DurNs   int64
	Step    int32
	Phase   PhaseID
}

// Recorder records phase spans for a fixed set of ranks, each into its
// own preallocated ring buffer. A nil *Recorder is a valid disabled
// recorder: Rank returns nil and every downstream call is a no-op.
type Recorder struct {
	epoch time.Time
	ranks []RankRecorder
}

// NewRecorder builds a recorder for the given number of
// ranks, each with a ring of spansPerRank spans (minimum 16). When a
// ring fills, the oldest spans are overwritten and counted as dropped,
// so long runs degrade to a trailing window instead of growing.
func NewRecorder(ranks, spansPerRank int) *Recorder {
	if ranks < 1 {
		ranks = 1
	}
	if spansPerRank < 16 {
		spansPerRank = 16
	}
	r := &Recorder{epoch: time.Now(), ranks: make([]RankRecorder, ranks)}
	for i := range r.ranks {
		rr := &r.ranks[i]
		rr.rec = r
		rr.rank = i
		rr.spans = make([]span, spansPerRank)
		rr.flows = make([]flowPoint, spansPerRank)
	}
	return r
}

// Ranks returns the number of rank tracks (0 for a nil recorder).
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Rank returns rank i's recorder, or nil when r is nil — the handle
// each rank threads through its step loop. Distinct ranks may record
// concurrently; a single rank's recorder is not safe for concurrent
// use (ranks are single goroutines).
func (r *Recorder) Rank(i int) *RankRecorder {
	if r == nil {
		return nil
	}
	return &r.ranks[i]
}

// flowPoint is one endpoint of a sender→receiver message flow: the
// outgoing point recorded at send time on the sender's track, or the
// incoming point recorded at receive time on the receiver's track.
// Matching endpoints share an ID, so the trace exporter can emit
// Chrome flow events ("s"/"f") that draw message-causality arrows
// between rank tracks in Perfetto. Fields are atomic words for the
// same live-snapshot reason as span's.
type flowPoint struct {
	id   atomic.Uint64
	ts   atomic.Int64 // nanoseconds since the recorder's epoch
	meta atomic.Int64 // step<<1 | out (out = 1 at the sender)
}

// flowCopy is one flow point read out of a ring by a live snapshot.
type flowCopy struct {
	id   uint64
	ts   int64
	step int32
	out  bool
}

// RankRecorder is one rank's span sink.
type RankRecorder struct {
	rec     *Recorder
	rank    int
	spans   []span
	n       atomic.Int64 // total spans recorded; ring index is n % len(spans)
	flows   []flowPoint
	fn      atomic.Int64 // total flow points recorded; ring index is fn % len(flows)
	step    int32
	phaseNs [MaxPhases]int64 // accessed with sync/atomic only
	_       [64]byte         // pad: rank recorders sit in one slice, ranks write concurrently
}

// SetStep tags subsequently recorded spans with an MD step number
// (use -1 for pre-loop work such as the initial force evaluation).
func (r *RankRecorder) SetStep(step int) {
	if r == nil {
		return
	}
	r.step = int32(step)
}

// Span is an in-flight interval returned by StartSpan. It is a plain
// value (no allocation); call End exactly once. The zero Span (from a
// nil recorder) is valid and End on it is a no-op.
type Span struct {
	r     *RankRecorder
	start int64
	phase PhaseID
}

// StartSpan opens a span of the given phase. On a nil recorder it
// returns the no-op zero Span after a single nil test.
func (r *RankRecorder) StartSpan(phase PhaseID) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, start: int64(time.Since(r.rec.epoch)), phase: phase}
}

// End closes the span, accumulating its duration into the rank's
// per-phase total and storing it in the ring. The slot words are
// published before the ring counter advances, so a live snapshot
// either sees the complete span or none of it.
func (s Span) End() {
	r := s.r
	if r == nil {
		return
	}
	d := int64(time.Since(r.rec.epoch)) - s.start
	atomic.AddInt64(&r.phaseNs[s.phase], d)
	slot := &r.spans[r.n.Load()%int64(len(r.spans))]
	slot.start.Store(s.start)
	slot.dur.Store(d)
	slot.meta.Store(packSpanMeta(r.step, s.phase))
	r.n.Add(1)
}

// flowID builds the shared flow identifier of one message: the step,
// tag, and sending rank pin it uniquely within a run, and both
// endpoints can compute it independently (the receiver knows who sent
// to it from the compiled exchange plan).
func flowID(step int32, tag, sender int) uint64 {
	return uint64(uint32(step+1))<<32 | uint64(uint32(tag))<<8 | uint64(uint8(sender))
}

// FlowSend records the outgoing endpoint of a message this rank sends
// with the given tag — call it at send time. A nil recorder makes it a
// no-op; a live one stores into the preallocated flow ring,
// so the call never allocates.
func (r *RankRecorder) FlowSend(tag int) {
	if r == nil {
		return
	}
	r.putFlow(flowID(r.step, tag, r.rank), true)
}

// FlowRecv records the incoming endpoint of a message received from
// rank `from` with the given tag — call it at receive time. Both
// endpoints of one message resolve to the same flow ID.
func (r *RankRecorder) FlowRecv(tag, from int) {
	if r == nil {
		return
	}
	r.putFlow(flowID(r.step, tag, from), false)
}

func (r *RankRecorder) putFlow(id uint64, out bool) {
	meta := int64(r.step) << 1
	if out {
		meta |= 1
	}
	slot := &r.flows[r.fn.Load()%int64(len(r.flows))]
	slot.id.Store(id)
	slot.ts.Store(int64(time.Since(r.rec.epoch)))
	slot.meta.Store(meta)
	r.fn.Add(1)
}

// PhaseNs returns the rank's accumulated nanoseconds in a phase. Safe
// to call concurrently with recording.
func (r *RankRecorder) PhaseNs(phase PhaseID) int64 {
	if r == nil {
		return 0
	}
	return atomic.LoadInt64(&r.phaseNs[phase])
}

// CopyPhaseNs copies the rank's cumulative per-phase totals into dst —
// the delta primitive per-step emitters subtract against.
func (r *RankRecorder) CopyPhaseNs(dst *[MaxPhases]int64) {
	if r == nil {
		*dst = [MaxPhases]int64{}
		return
	}
	for i := range dst {
		dst[i] = atomic.LoadInt64(&r.phaseNs[i])
	}
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (r *RankRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	if d := r.n.Load() - int64(len(r.spans)); d > 0 {
		return d
	}
	return 0
}

// snapshotSpans appends the ring's surviving spans, oldest first, to
// dst. It is safe to call while the owning rank records: the counter
// is read before and after copying, and the window a concurrent
// writer may have been overwriting — spans older than n₂ − len, whose
// slots were reused for spans [n₁, n₂) — is discarded, so every
// returned span is fully published.
func (r *RankRecorder) snapshotSpans(dst []SpanCopy) []SpanCopy {
	n1 := r.n.Load()
	ringLen := int64(len(r.spans))
	lo := int64(0)
	if d := n1 - ringLen; d > 0 {
		lo = d
	}
	type raw struct{ start, dur, meta int64 }
	tmp := make([]raw, 0, n1-lo)
	for k := lo; k < n1; k++ {
		slot := &r.spans[k%ringLen]
		tmp = append(tmp, raw{slot.start.Load(), slot.dur.Load(), slot.meta.Load()})
	}
	n2 := r.n.Load()
	if d := n2 - ringLen; d > lo {
		if d >= n1 {
			tmp = tmp[:0] // the whole ring churned during the copy
		} else {
			tmp = tmp[d-lo:]
		}
	}
	for _, t := range tmp {
		step, phase := unpackSpanMeta(t.meta)
		dst = append(dst, SpanCopy{StartNs: t.start, DurNs: t.dur, Step: step, Phase: phase})
	}
	return dst
}

// snapshotFlows is snapshotSpans for the flow-point ring.
func (r *RankRecorder) snapshotFlows(dst []flowCopy) []flowCopy {
	n1 := r.fn.Load()
	ringLen := int64(len(r.flows))
	lo := int64(0)
	if d := n1 - ringLen; d > 0 {
		lo = d
	}
	type raw struct {
		id       uint64
		ts, meta int64
	}
	tmp := make([]raw, 0, n1-lo)
	for k := lo; k < n1; k++ {
		slot := &r.flows[k%ringLen]
		tmp = append(tmp, raw{slot.id.Load(), slot.ts.Load(), slot.meta.Load()})
	}
	n2 := r.fn.Load()
	if d := n2 - ringLen; d > lo {
		if d >= n1 {
			tmp = tmp[:0]
		} else {
			tmp = tmp[d-lo:]
		}
	}
	for _, t := range tmp {
		dst = append(dst, flowCopy{id: t.id, ts: t.ts, step: int32(t.meta >> 1), out: t.meta&1 != 0})
	}
	return dst
}

// PhaseStat is one phase's per-rank time decomposition: the
// load-imbalance view (max vs mean across ranks) the paper's critical-
// path analysis is built on.
type PhaseStat struct {
	Phase     string
	PerRankNs []int64
	MaxNs     int64
	MeanNs    float64
}

// Imbalance returns max/mean — 1.0 is a perfectly balanced phase.
func (s PhaseStat) Imbalance() float64 {
	if s.MeanNs == 0 {
		return 0
	}
	return float64(s.MaxNs) / s.MeanNs
}

// PhaseStats aggregates every rank's accumulated per-phase time into
// one row per phase with nonzero total, in phase-registration order.
// The accumulators are read atomically, so it is safe to call while
// ranks are still recording — the live /phases endpoint does.
func (r *Recorder) PhaseStats() []PhaseStat {
	if r == nil {
		return nil
	}
	var out []PhaseStat
	for p := 0; p < numPhases(); p++ {
		per := make([]int64, len(r.ranks))
		total := int64(0)
		for i := range r.ranks {
			per[i] = atomic.LoadInt64(&r.ranks[i].phaseNs[p])
			total += per[i]
		}
		if total == 0 {
			continue
		}
		xs := make([]float64, len(per))
		for i, v := range per {
			xs[i] = float64(v)
		}
		mx, mean := MaxMean(xs)
		out = append(out, PhaseStat{
			Phase:     PhaseID(p).Name(),
			PerRankNs: per,
			MaxNs:     int64(mx),
			MeanNs:    mean,
		})
	}
	return out
}

// CriticalPathNs sums the per-phase max-rank times — the lower bound
// on wall time if every phase ended at a global synchronization point.
// Its ratio to measured wall time is the critical-path fraction.
func CriticalPathNs(stats []PhaseStat) int64 {
	var sum int64
	for _, s := range stats {
		sum += s.MaxNs
	}
	return sum
}

// MaxMean returns the maximum and arithmetic mean of xs (0, 0 for an
// empty slice) — the shared reduction behind phase imbalance and the
// per-field RankStats reductions in package parmd.
func MaxMean(xs []float64) (max, mean float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	max = xs[0]
	sum := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
		sum += x
	}
	return max, sum / float64(len(xs))
}
