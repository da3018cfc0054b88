package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/health"
)

func get(t *testing.T, s *Server, target string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func TestHealthzStatusMapping(t *testing.T) {
	okMon := health.New(health.Config{})
	okMon.ObserveAtomCount(0, 100, 100)

	warnMon := health.New(health.Config{})
	// Baseline, then a total-energy excursion between the default warn
	// (1e-2) and fail (1e-1) thresholds relative to KE₀.
	warnMon.ObserveEnergy(0, 0, 1)
	warnMon.ObserveEnergy(1, 0.05, 1)

	failMon := health.New(health.Config{})
	failMon.ObserveAtomCount(0, 99, 100) // the injected probe failure

	cases := []struct {
		name   string
		mon    *health.Monitor
		status string
		code   int
	}{
		{"no monitor", nil, "none", http.StatusOK},
		{"all ok", okMon, "ok", http.StatusOK},
		{"warn stays 2xx", warnMon, "warn", http.StatusNonAuthoritativeInfo},
		{"fail", failMon, "fail", http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &Server{Health: c.mon}
			rr := get(t, s, "/healthz")
			if rr.Code != c.code {
				t.Errorf("status code %d, want %d", rr.Code, c.code)
			}
			var resp healthzResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("healthz body not JSON: %v", err)
			}
			if resp.Status != c.status {
				t.Errorf("status %q, want %q", resp.Status, c.status)
			}
		})
	}
}

func TestHealthzReportsDone(t *testing.T) {
	s := &Server{}
	s.Finish()
	var resp healthzResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Done {
		t.Error("healthz does not report done after Finish")
	}
}

// TestStepsMidRunJoin: a subscriber that attaches while records are
// already flowing sees a contiguous step sequence from its join point
// and a clean end-of-stream when the run finishes.
func TestStepsMidRunJoin(t *testing.T) {
	tee := obs.NewStepTee()
	w := obs.NewStepWriterTee(nil, tee)
	s := &Server{Steps: tee}

	// Half the run happens before anyone listens: these lines vanish
	// (the writer is inactive) rather than queue.
	for step := 0; step < 50; step++ {
		w.WriteStep(obs.StepRecord{Step: step, Rank: 0})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Publish the rest once the handler's subscription lands, then
		// end the run.
		for !tee.Active() {
		}
		for step := 50; step < 80; step++ {
			w.WriteStep(obs.StepRecord{Step: step, Rank: 0})
		}
		s.Finish()
	}()

	rr := get(t, s, "/steps?buf=64")
	wg.Wait()
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var steps []int
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		var rec obs.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		steps = append(steps, rec.Step)
	}
	if len(steps) == 0 {
		t.Fatal("mid-run subscriber saw no records")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] != steps[i-1]+1 {
			t.Fatalf("step sequence not contiguous: %v", steps)
		}
	}
	if steps[len(steps)-1] != 79 {
		t.Errorf("stream ended at step %d, want 79", steps[len(steps)-1])
	}
}

func TestStepsSSEFraming(t *testing.T) {
	tee := obs.NewStepTee()
	w := obs.NewStepWriterTee(nil, tee)
	s := &Server{Steps: tee}
	go func() {
		for !tee.Active() {
		}
		w.WriteStep(obs.StepRecord{Step: 7, Rank: 1})
		s.Finish()
	}()
	rr := get(t, s, "/steps", "Accept", "text/event-stream")
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, `data: {"step":7,"rank":1`) {
		t.Errorf("missing SSE data frame:\n%s", body)
	}
	if !strings.Contains(body, "event: end") {
		t.Errorf("missing SSE end event:\n%s", body)
	}
}

// TestSlowSubscriberDrops: a subscriber with a full buffer loses lines
// without ever blocking Publish, and the losses surface both on the
// subscription and in the server's own /metrics meters.
func TestSlowSubscriberDrops(t *testing.T) {
	tee := obs.NewStepTee()
	sub := tee.Subscribe(2)
	for i := 0; i < 10; i++ {
		tee.Publish([]byte("{}\n"))
	}
	if got := sub.Dropped(); got != 8 {
		t.Errorf("subscriber dropped %d, want 8", got)
	}
	s := &Server{Steps: tee}
	body := get(t, s, "/metrics").Body.String()
	if !strings.Contains(body, "serve_steps_dropped_lines 8") {
		t.Errorf("/metrics missing drop counter:\n%s", body)
	}
	if !strings.Contains(body, "serve_steps_subscribers 1") {
		t.Errorf("/metrics missing subscriber gauge:\n%s", body)
	}
	sub.Cancel()
}

func TestStepsAfterFinishEndsCleanly(t *testing.T) {
	tee := obs.NewStepTee()
	s := &Server{Steps: tee}
	s.Finish()
	rr := get(t, s, "/steps")
	if rr.Code != http.StatusOK || rr.Body.Len() != 0 {
		t.Errorf("post-run stream: code %d body %q, want empty 200", rr.Code, rr.Body.String())
	}
}

func TestStepsBadBuf(t *testing.T) {
	s := &Server{Steps: obs.NewStepTee()}
	if rr := get(t, s, "/steps?buf=bogus"); rr.Code != http.StatusBadRequest {
		t.Errorf("bad buf: code %d, want 400", rr.Code)
	}
}

func TestHealthzStepFields(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("parmd.steps").Add(42)
	s := &Server{Registry: reg, Info: map[string]string{"steps": "100"}}
	var resp healthzResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Step != 42 || resp.StepsTotal != 100 {
		t.Errorf("healthz step=%d steps_total=%d, want 42/100", resp.Step, resp.StepsTotal)
	}
	// The raw body carries the wire field names dashboards key on.
	body := get(t, s, "/healthz").Body.String()
	for _, want := range []string{`"step":42`, `"steps_total":100`, `"uptime_ms":`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz body missing %s:\n%s", want, body)
		}
	}
}

func TestHistoryAndAnomalies(t *testing.T) {
	// More steps than the raw ring holds, so /history serves a
	// wrapped window.
	fl := flight.New(flight.Config{Ranks: 1})
	const steps = 1100
	for step := 0; step < steps; step++ {
		fl.ObserveStep(obs.StepRecord{
			Step: step, Rank: 0, WallNs: 1000,
			PhaseNs: map[string]int64{"halo": 10},
		})
	}
	fl.RecordAbort(steps-1, "boom")
	s := &Server{Flight: fl}

	rr := get(t, s, "/history")
	if rr.Code != http.StatusOK {
		t.Fatalf("/history: status %d", rr.Code)
	}
	var hist flight.HistorySnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	retained := len(fl.History(1, nil).Records)
	if hist.Res != 1 || len(hist.Records) != retained || retained >= steps {
		t.Fatalf("raw history res=%d records=%d, want 1/%d (< %d fed)", hist.Res, len(hist.Records), retained, steps)
	}
	if last := hist.Records[len(hist.Records)-1]; last.Step != steps-1 {
		t.Errorf("raw history ends at step %d, want %d", last.Step, steps-1)
	}

	if err := json.Unmarshal(get(t, s, "/history?res=10&fields=halo").Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Res != 10 || len(hist.Buckets) == 0 {
		t.Fatalf("downsampled history: %+v", hist)
	}
	if _, ok := hist.Buckets[0].Fields["phase.halo"]; !ok {
		t.Errorf("field filter lost phase.halo: %+v", hist.Buckets[0].Fields)
	}
	if _, ok := hist.Buckets[0].Fields["wall_ns"]; ok {
		t.Errorf("field filter kept wall_ns: %+v", hist.Buckets[0].Fields)
	}

	if rr := get(t, s, "/history?res=7"); rr.Code != http.StatusBadRequest {
		t.Errorf("bad res: code %d, want 400", rr.Code)
	}

	var anom flight.AnomalySnapshot
	if err := json.Unmarshal(get(t, s, "/anomalies").Body.Bytes(), &anom); err != nil {
		t.Fatal(err)
	}
	if anom.Total != 1 || anom.Last == nil || anom.Last.Kind != flight.KindAbort {
		t.Errorf("/anomalies snapshot: %+v", anom)
	}
}

func TestStepsSSEAnomalyEvent(t *testing.T) {
	tee := obs.NewStepTee()
	s := &Server{Steps: tee}
	go func() {
		for !tee.Active() {
		}
		fl := flight.New(flight.Config{Ranks: 1, Tee: tee})
		fl.RecordAbort(3, "boom")
		s.Finish()
	}()
	body := get(t, s, "/steps", "Accept", "text/event-stream").Body.String()
	if !strings.Contains(body, "event: anomaly\ndata: {\"anomaly\":") {
		t.Errorf("missing named anomaly SSE frame:\n%s", body)
	}
}

func TestMissingSourcesAre404(t *testing.T) {
	s := &Server{}
	for _, target := range []string{"/phases", "/trace", "/steps", "/history", "/anomalies"} {
		if rr := get(t, s, target); rr.Code != http.StatusNotFound {
			t.Errorf("%s with no source: code %d, want 404", target, rr.Code)
		}
	}
	// /metrics and /registry answer even on an empty server (the
	// server's own meters / an empty snapshot).
	if rr := get(t, s, "/metrics"); rr.Code != http.StatusOK {
		t.Errorf("/metrics on empty server: code %d", rr.Code)
	}
	if rr := get(t, s, "/registry"); rr.Code != http.StatusOK {
		t.Errorf("/registry on empty server: code %d", rr.Code)
	}
}

func TestPhasesLive(t *testing.T) {
	rec := obs.NewRecorder(2, 64)
	for rank := 0; rank < 2; rank++ {
		rr := rec.Rank(rank)
		rr.SetStep(0)
		sp := rr.StartSpan(obs.Phase("force:interior"))
		sp.End()
	}
	s := &Server{Recorder: rec}
	rr := get(t, s, "/phases")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp phasesResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ranks != 2 {
		t.Errorf("ranks %d, want 2", resp.Ranks)
	}
	found := false
	for _, p := range resp.Phases {
		if p.Phase == "force:interior" && len(p.PerRankMs) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("force:interior phase missing from live /phases: %+v", resp.Phases)
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	s := &Server{Info: map[string]string{"model": "silica"}}
	body := get(t, s, "/").Body.String()
	for _, want := range []string{"/metrics", "/healthz", "/steps", "/phases", "/trace", "/history", "/anomalies", "/debug/pprof", "model: silica"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
	}
	if rr := get(t, s, "/nonexistent"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", rr.Code)
	}
}

func TestPprofMounted(t *testing.T) {
	s := &Server{}
	if rr := get(t, s, "/debug/pprof/cmdline"); rr.Code != http.StatusOK {
		t.Errorf("pprof cmdline: code %d, want 200", rr.Code)
	}
}
