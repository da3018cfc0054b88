// Command perfbench is the repository benchmark: wall time per MD step
// of the rank-parallel engines on 1536-atom silica, measured with every
// instrument off, and — in traced mode — the step split into the cost
// of the layers below it.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//	perfbench compare OLD.json NEW.json
//
// A run prints a human-readable report and, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. With --out it also writes the full
// result (host fingerprint, workload provenance, diagnostics, spans)
// to DIR/<workload>-seed<N>-trace<T>.json; compare diffs two such
// files and refuses files from different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sctuple/internal/comm"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's verdict line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of one invocation.
type record struct {
	Workload    workloadSpec       `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        fingerprint        `json:"host"`
	Output      output             `json:"output"`
	FailedFrac  float64            `json:"failed_frac"`
	Problems    []string           `json:"problems,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Layers      *layerCosts        `json:"layers,omitempty"`
	Attribution []attribTerm       `json:"attribution,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// runBenchmark runs one workload for the budget and returns its
// result. transport, when non-nil, replaces the transport of timed
// repetitions (see bench.transport).
func runBenchmark(spec workloadSpec, seed int64, seconds int, traced bool, transport func(int) comm.Transport) (*record, error) {
	b := newBench(spec, seed)
	b.transport = transport
	rec := &record{Workload: spec, Seed: seed, Seconds: seconds, Trace: traced}
	fmt.Printf("perfbench %s seed %d: %d atoms, %d ranks × %d worker, %s, %d steps per repetition, dt %g fs\n",
		spec.Name, seed, b.cfg.N(), ranks, workers, spec.Scheme, b.steps, dtFs)
	if err := b.reference(); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds) * time.Second

	var metrics map[string]metric
	var err error
	if traced {
		metrics, err = b.layerRun(budget, rec)
	} else {
		metrics, err = b.endToEnd(budget, rec)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	rec.Spans = b.spans.finish()
	rec.FailedFrac = float64(b.failed) / float64(b.attempted)
	rec.Problems = b.problems
	rec.Diagnostics["energy_drift"] = b.ref.drift
	rec.Diagnostics["initial_pe_rel_err"] = b.ref.peRelErr
	rec.Output = output{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	fmt.Printf("failed_frac %g (%d of %d runs); NVE drift %.3g of KE; initial PE vs serial %.3g\n",
		rec.FailedFrac, b.failed, b.attempted, b.ref.drift, b.ref.peRelErr)
	for _, p := range b.problems {
		fmt.Println("  problem:", p)
	}
	fmt.Println("host:", rec.Host.identity())
	return rec, nil
}

// endToEnd measures the user-visible metrics: per-step wall-time
// quantiles, throughput, set-up time and peak memory.
func (b *bench) endToEnd(budget time.Duration, rec *record) (map[string]metric, error) {
	t, err := b.measure(budget, false)
	if err != nil {
		return nil, err
	}
	if len(t.reps) == 0 || len(t.setups) == 0 {
		return nil, fmt.Errorf("no repetition succeeded: %s", strings.Join(b.problems, "; "))
	}
	xs := samples(t.reps)
	p50, p90 := quantile(xs, 0.5), quantile(xs, 0.9)
	setup := median(t.setups)
	above := 0
	for _, x := range xs {
		if x > p90 {
			above++
		}
	}
	atoms := float64(b.cfg.N())
	m := map[string]metric{
		"step_ms_p50":      {p50, "ms"},
		"atom_steps_per_s": {atoms * float64(len(xs)) / sum(perRep(t.reps, func(r *rep) float64 { return r.loopS })), "1/s"},
		"setup_s":          {setup, "s"},
		"rss_peak_mb":      {median(perRep(t.reps, func(r *rep) float64 { return r.rssMB })), "MB"},
	}
	// The sink's mean step against the step time implied by the
	// outside clock: a gap means the timed loop holds work the per-step
	// samples miss, or the samples include work outside the loop.
	sink := median(perRep(t.reps, func(r *rep) float64 { return r.sinkMean }))
	outside := median(perRep(t.reps, func(r *rep) float64 { return (r.outerS - setup) * 1e3 / float64(b.steps) }))
	gap := 100 * (outside - sink) / sink
	stealAll, stealQuiet := t.steal()
	rec.Diagnostics = map[string]float64{
		// step_ms_p90 is reported but not gated: sustained hypervisor
		// steal on a shared host moves it by up to half again between
		// runs, twice as much as the median.
		"step_ms_p90": p90, "samples": float64(len(xs)), "samples_above_p90": float64(above),
		"iterations": float64(len(t.all)), "repetitions": float64(len(t.reps)),
		"setup_samples": float64(len(t.setups)), "steal_median": median(stealAll),
		"steal_max_kept": stealQuiet[len(stealQuiet)-1],
		"measure_s":      t.elapsed.Seconds(), "sink_mean_step_ms": sink,
		"outside_mean_step_ms": outside, "sink_gap_pct": gap,
	}
	if rec.Host, _, err = fingerprintHost(); err != nil {
		return nil, err
	}

	fmt.Printf("%d iterations in %.1f s; the %d least disturbed (host steal ≤ %.1f%%, median %.1f%%) give %d step samples (%d above p90) and %d set-up samples\n",
		len(t.all), t.elapsed.Seconds(), len(stealQuiet), 100*stealQuiet[len(stealQuiet)-1], 100*median(stealAll), len(xs), above, len(t.setups))
	for _, name := range []string{"step_ms_p50", "atom_steps_per_s", "setup_s", "rss_peak_mb"} {
		fmt.Printf("  %-18s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Printf("  %-18s %14.6g ms (not gated)\n", "step_ms_p90", p90)
	fmt.Printf("sink mean step %.3f ms vs (run wall − setup_s)/steps %.3f ms: gap %+.2f%%\n", sink, outside, gap)
	return m, nil
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the thermal velocities")
	seconds := flag.Int("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	out := flag.String("out", "", "directory for the result file (none when empty)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string) error {
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	rec, err := runBenchmark(spec, seed, seconds, trace == 1, nil)
	if err != nil {
		return err
	}
	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("result:", path)
	}
	line, err := json.Marshal(rec.Output)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
