package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
)

// watchServer builds a fully-populated server behind an httptest
// listener: registry counters, live phase spans, a flight recorder
// with one logged anomaly, and run info — everything the dashboard
// renders.
func watchServer(t *testing.T) (*Server, string) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("parmd.steps").Add(12)
	reg.Counter("parmd.repartitions").Add(1)
	reg.Counter(obs.CommClassMetric("halo", "bytes")).Add(4096)
	reg.Counter(obs.CommClassMetric("halo", "messages")).Add(8)

	rec := obs.NewRecorder(2, 64)
	for rank := 0; rank < 2; rank++ {
		rr := rec.Rank(rank)
		rr.SetStep(0)
		rr.StartSpan(obs.Phase("force:interior")).End()
	}

	fl := flight.New(flight.Config{Ranks: 2})
	fl.RecordAbort(11, "test")

	s := &Server{
		Registry: reg,
		Recorder: rec,
		Flight:   fl,
		Info:     map[string]string{"model": "silica", "steps": "100"},
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

func TestWatchPlainFrame(t *testing.T) {
	_, url := watchServer(t)
	var buf strings.Builder
	if err := Watch(&buf, url, WatchOptions{Iterations: 1, Plain: true}); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"watching " + url,
		"health=none",
		"model=silica",
		"steps 12",
		"repartitions 1",
		"force:interior",
		"critical path",
		"halo",
		"4.0 KiB",
		"anomalies 1",
		"last: abort step 11",
		"HARD",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plain frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("plain mode emitted ANSI clear")
	}
}

func TestWatchANSIRedraw(t *testing.T) {
	_, url := watchServer(t)
	var buf strings.Builder
	if err := Watch(&buf, url, WatchOptions{Iterations: 2, Every: 1}); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if n := strings.Count(buf.String(), "\x1b[2J\x1b[H"); n != 2 {
		t.Errorf("ANSI clear appeared %d times, want one per frame (2)", n)
	}
}

// TestWatchStopsOnDone: a run that reports done ends the watch with a
// completion line even when Iterations would keep polling.
func TestWatchStopsOnDone(t *testing.T) {
	s, url := watchServer(t)
	s.done.Store(true)
	var buf strings.Builder
	if err := Watch(&buf, url, WatchOptions{Iterations: 50, Plain: true}); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "run complete") {
		t.Errorf("done run did not report completion:\n%s", out)
	}
	if strings.Count(out, "watching ") != 1 {
		t.Errorf("watch kept polling after done:\n%s", out)
	}
}

// TestWatchWithoutSources: a bare server (no flight recorder, no
// phases) renders the header lines and omits the optional sections.
func TestWatchWithoutSources(t *testing.T) {
	s := &Server{}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var buf strings.Builder
	if err := Watch(&buf, ts.URL, WatchOptions{Iterations: 1, Plain: true}); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "watching ") {
		t.Errorf("missing header:\n%s", out)
	}
	for _, absent := range []string{"anomalies", "critical path", "comm class"} {
		if strings.Contains(out, absent) {
			t.Errorf("bare server frame should omit %q:\n%s", absent, out)
		}
	}
}
