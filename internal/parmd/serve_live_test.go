package parmd

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
	"sctuple/internal/obs/serve"
)

// TestLiveTelemetryServer is the end-to-end acceptance check of the
// telemetry server: a 2-rank run wired exactly like scmd -serve
// (registry + recorder + health monitor + step tee) answers /metrics
// (valid, parser-checked Prometheus text with the labeled comm
// families and parmd_imbalance), /healthz, /phases, and a streaming
// /steps subscriber — all while the simulation is still stepping.
// Under -race this also proves the endpoint reads are data-race-free
// against the recording ranks.
func TestLiveTelemetryServer(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 7)
	cart := comm.NewCart(2)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(2, 4096)
	mon := health.New(health.Config{Every: 4})
	tee := obs.NewStepTee()
	srv := &serve.Server{
		Registry: reg,
		Recorder: rec,
		Health:   mon,
		Steps:    tee,
		Info:     map[string]string{"model": model.Name},
	}
	handler := srv.Handler()
	get := func(target string, hdr ...string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", target, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		return rr
	}

	steps := 60
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	var res *Result
	go func() {
		defer wg.Done()
		defer srv.Finish()
		res, runErr = Run(cfg, model, Options{
			Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: steps,
			Recorder: rec, Metrics: reg, Health: mon,
			StepLog: obs.NewStepWriterTee(nil, tee),
		})
	}()

	// Wait until the run is visibly stepping (live registry counts),
	// then scrape every endpoint mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("run never started stepping")
		}
		if reg.Snapshot().Counters["parmd.steps"] > 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	metrics := get("/metrics")
	if metrics.Code != http.StatusOK {
		t.Fatalf("/metrics mid-run: status %d", metrics.Code)
	}
	body := metrics.Body.String()
	for _, want := range []string{
		"parmd_imbalance", `comm_bytes{class="halo"}`, "parmd_steps",
		"# TYPE comm_bytes counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-run /metrics missing %q", want)
		}
	}
	// Every line must be a TYPE or sample line — the same shape the
	// serve package's exposition parser pins in detail.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// ok and warn both map to 2xx — a liveness probe must keep passing
	// while the run is healthy enough to continue.
	if rr := get("/healthz"); rr.Code/100 != 2 {
		t.Errorf("/healthz mid-run: status %d body %s", rr.Code, rr.Body.String())
	}
	var phases struct {
		Ranks  int `json:"ranks"`
		Phases []struct {
			Phase string `json:"phase"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(get("/phases").Body.Bytes(), &phases); err != nil {
		t.Fatalf("/phases mid-run: %v", err)
	}
	if phases.Ranks != 2 || len(phases.Phases) == 0 {
		t.Errorf("/phases mid-run: ranks %d, %d phases", phases.Ranks, len(phases.Phases))
	}

	// A streaming subscriber joining mid-run sees contiguous per-rank
	// step records until the run finishes and the stream ends cleanly.
	stream := get("/steps?buf=4096")
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if stream.Code != http.StatusOK {
		t.Fatalf("/steps: status %d", stream.Code)
	}
	lastByRank := map[int]int{}
	n := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var rec obs.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if last, seen := lastByRank[rec.Rank]; seen && rec.Step != last+1 {
			t.Fatalf("rank %d: step %d after %d (stream not contiguous)", rec.Rank, rec.Step, last)
		}
		lastByRank[rec.Rank] = rec.Step
		if rec.Counters["steps"] != 1 {
			t.Fatalf("mid-run join got cumulative counters, not per-step deltas: %v", rec.Counters)
		}
		n++
	}
	if n == 0 {
		t.Fatal("streaming subscriber saw no step records")
	}
	for rank, last := range lastByRank {
		if last != steps-1 {
			t.Errorf("rank %d stream ended at step %d, want %d", rank, last, steps-1)
		}
	}

	// After the run, the live counters have reached the run's exact
	// totals. parmd.steps counts force evaluations (the pre-loop setup
	// evaluation plus one per step), so it must match the Result's
	// reduction.
	final := reg.Snapshot()
	if got, want := final.Counters["parmd.steps"], int64(res.MaxRank().Steps); got != want {
		t.Errorf("final parmd.steps = %d, want %d (an observation was not folded)", got, want)
	}
	if _, ok := final.Gauges["parmd.imbalance"]; !ok {
		t.Error("parmd.imbalance missing from final registry")
	}
}

// TestPublishMetricsNamesConsistent pins the name mapping between the
// registry a real 2-rank run fills — the observers' counter folds, the
// end-of-run gauges, and the health monitor's probe counters — and the
// obs name helpers: every comm/phase/health family must be recognized
// by obs.SplitLabeled (so the exposition lifts its middle segment into
// a label), and the per-class JSONL step-record keys must be the
// flattened form of the same registry names.
func TestPublishMetricsNamesConsistent(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 7)
	cart := comm.NewCart(2)
	reg := obs.NewRegistry()
	res, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: 2,
		Recorder: obs.NewRecorder(cart.Size(), 256), Metrics: reg,
		Health: health.New(health.Config{Every: 1, Registry: reg}),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges))
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	families := map[string]bool{}
	for _, name := range names {
		head, _, _ := strings.Cut(name, ".")
		switch head {
		case "comm", "phase", "health":
			families[head] = true
			if name == "phase.critical_path_fraction" {
				continue // two segments: flat by design
			}
			if _, _, _, ok := obs.SplitLabeled(name); !ok {
				t.Errorf("registry name %q not recognized by SplitLabeled; exposition will flatten it", name)
			}
		}
	}
	for _, head := range []string{"comm", "phase", "health"} {
		if !families[head] {
			t.Errorf("run registered no %s.* names", head)
		}
	}
	if _, ok := snap.Gauges["parmd.imbalance"]; !ok {
		t.Error("run did not set parmd.imbalance without a balancer")
	}
	if _, ok := snap.Counters["parmd.repartitions"]; !ok {
		t.Error("run did not register parmd.repartitions without a balancer")
	}
	for class := range res.CommByClass {
		regName := obs.CommClassMetric(class, "bytes")
		if _, ok := snap.Counters[regName]; !ok {
			t.Errorf("comm class %q bytes missing under %q", class, regName)
		}
		if got, want := obs.CommClassKey(class, "bytes"), obs.PromName(regName); got != want {
			t.Errorf("JSONL key %q != flattened registry name %q", got, want)
		}
	}
}
