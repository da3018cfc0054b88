package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/parmd"
)

// tinySteps keeps self-test repetitions short: two warm-up steps and
// four samples each.
const tinySteps = 6

func tiny(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.RepSteps = tinySteps
	return spec
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// promises for one mode.
func declaredMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkEmitted(t *testing.T, rec *record, want map[string]string) {
	t.Helper()
	got := rec.Output.Metrics
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", rec.Workload.Name, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload.Name, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", rec.Workload.Name, name)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	endToEnd := declaredMetrics(t, "end_to_end")
	for _, w := range workloads {
		rec, err := runBenchmark(tiny(t, w.Name), 1, 1, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Output.Correct || rec.Output.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", w.Name, rec.Output.Correct, rec.Output.Failed, rec.Problems)
		}
		checkEmitted(t, rec, endToEnd)
	}
	rec, err := runBenchmark(tiny(t, "hybrid-silica-unix"), 1, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, rec, declaredMetrics(t, "per_layer"))
	if len(rec.Attribution) == 0 || len(rec.Spans) == 0 {
		t.Errorf("traced run recorded %d attribution terms and %d spans", len(rec.Attribution), len(rec.Spans))
	}
}

// TestCorruptedRepetitionCountsAsFailed injects a halo-corrupting
// transport into one timed repetition: the run must finish, count the
// repetition in failed, and leave its steps out of the samples.
func TestCorruptedRepetitionCountsAsFailed(t *testing.T) {
	const bad = 1
	inject := func(rep int) comm.Transport {
		if rep != bad {
			return nil
		}
		tr, err := parmd.NewFaultTransport(ranks, "halo", 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	rec, err := runBenchmark(tiny(t, "hybrid-silica"), 1, 1, false, inject)
	if err != nil {
		t.Fatal(err)
	}
	out := rec.Output
	if out.Failed != 1 || out.Correct {
		t.Fatalf("failed=%d correct=%v, want one failed repetition and correct=false (problems %v)", out.Failed, out.Correct, rec.Problems)
	}
	if want := float64(out.Failed) / float64(out.Attempted); rec.FailedFrac != want {
		t.Errorf("failed_frac %g, want %g", rec.FailedFrac, want)
	}
	if len(rec.Problems) != 1 || !strings.Contains(rec.Problems[0], "timed repetition 2") {
		t.Errorf("problems %q should name timed repetition 2 only", rec.Problems)
	}
	reps := rec.Diagnostics["repetitions"]
	if got, want := rec.Diagnostics["samples"], reps*(tinySteps-warmSteps); got != want {
		t.Errorf("%g step samples from %g good repetitions, want %g", got, reps, want)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int) string {
		rec := record{Workload: workloads[0], Host: fingerprint{NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"},
			Output: output{Metrics: map[string]metric{"step_ms_p50": {40, "ms"}}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 8)
	if err := compare(io.Discard, a, b); err != nil {
		t.Errorf("same host: %v", err)
	}
	if err := compare(io.Discard, a, c); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("different hosts: got %v, want a refusal", err)
	}
}
