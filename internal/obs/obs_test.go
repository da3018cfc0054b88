package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestPhaseInterning(t *testing.T) {
	a := Phase("test.alpha")
	b := Phase("test.beta")
	if a == b {
		t.Fatalf("distinct names interned to one ID %d", a)
	}
	if again := Phase("test.alpha"); again != a {
		t.Errorf("re-interning test.alpha: %d, want %d", again, a)
	}
	if a.Name() != "test.alpha" || b.Name() != "test.beta" {
		t.Errorf("names round-trip: %q, %q", a.Name(), b.Name())
	}
}

func TestRecorderSpansAndPhaseTotals(t *testing.T) {
	p1, p2 := Phase("test.p1"), Phase("test.p2")
	rec := NewRecorder(2, 64)
	rr := rec.Rank(1)
	rr.SetStep(3)
	for i := 0; i < 4; i++ {
		sp := rr.StartSpan(p1)
		time.Sleep(100 * time.Microsecond)
		sp.End()
	}
	sp := rr.StartSpan(p2)
	sp.End()

	if got := rr.PhaseNs(p1); got <= 0 {
		t.Errorf("phase p1 total %d ns, want > 0", got)
	}
	if rr.Dropped() != 0 {
		t.Errorf("dropped %d spans in an oversized ring", rr.Dropped())
	}
	if rec.Rank(0).PhaseNs(p1) != 0 {
		t.Error("rank 0 accumulated time it never recorded")
	}

	stats := rec.PhaseStats()
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Phase] = s
	}
	s1, ok := byName["test.p1"]
	if !ok {
		t.Fatal("PhaseStats missing test.p1")
	}
	if len(s1.PerRankNs) != 2 || s1.PerRankNs[0] != 0 || s1.PerRankNs[1] != rr.PhaseNs(p1) {
		t.Errorf("p1 per-rank %v, want [0 %d]", s1.PerRankNs, rr.PhaseNs(p1))
	}
	if s1.MaxNs != rr.PhaseNs(p1) {
		t.Errorf("p1 max %d, want %d", s1.MaxNs, rr.PhaseNs(p1))
	}
	if want := float64(rr.PhaseNs(p1)) / 2; s1.MeanNs != want {
		t.Errorf("p1 mean %g, want %g", s1.MeanNs, want)
	}
	if imb := s1.Imbalance(); imb != 2 {
		t.Errorf("p1 imbalance %g on a 2-rank world with one idle rank, want 2", imb)
	}
	if cp := CriticalPathNs(stats); cp < s1.MaxNs {
		t.Errorf("critical path %d below largest phase %d", cp, s1.MaxNs)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	p := Phase("test.wrap")
	rec := NewRecorder(1, 16)
	rr := rec.Rank(0)
	for i := 0; i < 40; i++ {
		rr.SetStep(i)
		sp := rr.StartSpan(p)
		sp.End()
	}
	if got := rr.Dropped(); got != 40-16 {
		t.Errorf("dropped %d, want %d", got, 40-16)
	}
	events := rec.Events()
	// 1 metadata + 16 surviving spans, tagged with the latest steps.
	var spans []TraceEvent
	for _, e := range events {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 16 {
		t.Fatalf("%d surviving spans, want 16", len(spans))
	}
	if first, last := spans[0].Args["step"], spans[15].Args["step"]; first != 24 || last != 39 {
		t.Errorf("surviving window steps [%v, %v], want [24, 39]", first, last)
	}
}

// TestDisabledAndNilRecorderAreFreeAndInert: a nil *Recorder is the
// disabled recorder — its rank handles are nil, every span and flow
// call on them is an allocation-free no-op — and a live recorder's
// spans are allocation-free too.
func TestDisabledAndNilRecorderAreFreeAndInert(t *testing.T) {
	p := Phase("test.disabled")
	var nilRec *Recorder
	if nilRec.Ranks() != 0 || nilRec.PhaseStats() != nil {
		t.Error("nil recorder reports ranks or phases")
	}
	nilRank := nilRec.Rank(0)
	if nilRank != nil {
		t.Fatal("nil recorder returned a rank")
	}
	nilRank.SetStep(1)
	sp := nilRank.StartSpan(p)
	sp.End() // must not panic
	nilRank.FlowSend(1)
	nilRank.FlowRecv(1, 0)
	if nilRank.PhaseNs(p) != 0 || nilRank.Dropped() != 0 {
		t.Error("nil rank recorder recorded a span")
	}

	rec := NewRecorder(1, 16)
	rr := rec.Rank(0)
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := nilRank.StartSpan(p)
		s.End()
		nilRank.FlowSend(1)
		nilRank.FlowRecv(1, 0)
	}); allocs != 0 {
		t.Errorf("nil rank recorder: %g allocs/op", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := rr.StartSpan(p)
		s.End()
	}); allocs != 0 {
		t.Errorf("live recorder: %g allocs/op", allocs)
	}
}

func TestWriteTraceWellFormed(t *testing.T) {
	pa, pb := Phase("test.trace.a"), Phase("test.trace.b")
	rec := NewRecorder(2, 32)
	for rank := 0; rank < 2; rank++ {
		rr := rec.Rank(rank)
		rr.SetStep(0)
		for _, p := range []PhaseID{pa, pb} {
			sp := rr.StartSpan(p)
			sp.End()
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	names := map[int]string{}
	spans := 0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			names[e.Tid], _ = e.Args["name"].(string)
		case "X":
			tracks[e.Tid] = true
			if e.Dur < 0 || e.Ts < 0 {
				t.Errorf("event %q has ts %g dur %g", e.Name, e.Ts, e.Dur)
			}
			if _, ok := e.Args["step"]; !ok {
				t.Errorf("event %q missing step arg", e.Name)
			}
			spans++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	if len(tracks) != 2 {
		t.Errorf("%d tracks, want one per rank (2)", len(tracks))
	}
	if spans != 4 {
		t.Errorf("%d span events, want 4", spans)
	}
	if names[0] != "rank 0" || names[1] != "rank 1" {
		t.Errorf("track names %v, want rank 0 / rank 1", names)
	}

	// A nil recorder still writes a valid, empty trace.
	buf.Reset()
	var nilRec *Recorder
	if err := nilRec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil-recorder trace invalid: %v", err)
	}
}

func TestMaxMean(t *testing.T) {
	if mx, mean := MaxMean(nil); mx != 0 || mean != 0 {
		t.Errorf("empty: (%g, %g)", mx, mean)
	}
	if mx, mean := MaxMean([]float64{2, 8, 5}); mx != 8 || mean != 5 {
		t.Errorf("got (%g, %g), want (8, 5)", mx, mean)
	}
	if mx, mean := MaxMean([]float64{-3, -1}); mx != -1 || mean != -2 {
		t.Errorf("negatives: (%g, %g), want (-1, -2)", mx, mean)
	}
}
