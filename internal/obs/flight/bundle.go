package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
)

// Bundle file names. A postmortem bundle is a plain directory of
// them; offline tools key on the names.
const (
	BundleSteps     = "steps.jsonl"
	BundleAnomalies = "anomalies.jsonl"
	BundleMetrics   = "metrics.json"
	BundleHealth    = "health.json"
	BundleTrace     = "trace.json"
	BundleConfig    = "config.json"
)

// BundleSources collects everything a postmortem bundle snapshots.
// Only Flight is required; nil sources skip their file.
type BundleSources struct {
	Flight   *Recorder
	Trace    *obs.Recorder
	Registry *obs.Registry
	Health   *health.Monitor
	// Info is the run's static metadata (model, scheme, ranks, …).
	Info map[string]string
	// Reason is why the bundle was written ("rank failure: …",
	// "signal: interrupt", …).
	Reason string
}

// bundleConfig is the config.json shape.
type bundleConfig struct {
	Reason    string            `json:"reason"`
	WrittenAt string            `json:"written_at"`
	Ranks     int               `json:"ranks"`
	Records   int64             `json:"records"`
	Steps     int64             `json:"steps_completed"`
	Anomalies int64             `json:"anomalies"`
	Info      map[string]string `json:"info,omitempty"`
}

// WriteBundle writes a postmortem bundle directory: the retained step
// records as JSONL, the anomaly log, a metrics snapshot, the health
// summary, a Chrome trace snapshot, and the run config — everything
// needed to ask "what was the run doing when it died" without the
// process that died.
func WriteBundle(dir string, src BundleSources) error {
	if src.Flight == nil {
		return fmt.Errorf("flight: bundle needs a flight recorder")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flight: bundle dir: %w", err)
	}
	write := func(name string, fill func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("flight: bundle %s: %w", name, err)
		}
		if err := fill(f); err != nil {
			f.Close()
			return fmt.Errorf("flight: bundle %s: %w", name, err)
		}
		return f.Close()
	}

	if err := write(BundleSteps, func(f *os.File) error {
		return src.Flight.WriteSteps(f)
	}); err != nil {
		return err
	}
	if err := write(BundleAnomalies, func(f *os.File) error {
		enc := json.NewEncoder(f)
		for _, a := range src.Flight.Anomalies().Anomalies {
			if err := enc.Encode(a); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if src.Registry != nil {
		if err := write(BundleMetrics, func(f *os.File) error {
			return json.NewEncoder(f).Encode(src.Registry.Snapshot())
		}); err != nil {
			return err
		}
	}
	if src.Health != nil {
		if err := write(BundleHealth, func(f *os.File) error {
			return json.NewEncoder(f).Encode(src.Health.Summary())
		}); err != nil {
			return err
		}
	}
	if src.Trace != nil {
		if err := write(BundleTrace, func(f *os.File) error {
			return src.Trace.WriteTrace(f)
		}); err != nil {
			return err
		}
	}
	return write(BundleConfig, func(f *os.File) error {
		return json.NewEncoder(f).Encode(bundleConfig{
			Reason:    src.Reason,
			WrittenAt: time.Now().UTC().Format(time.RFC3339),
			Ranks:     src.Flight.Ranks(),
			Records:   src.Flight.Records(),
			Steps:     src.Flight.CompletedSteps(),
			Anomalies: src.Flight.Anomalies().Total,
			Info:      src.Info,
		})
	})
}

// WriteSteps writes the retained raw records as JSONL, oldest first —
// the same schema the StepWriter emits, so a bundle's steps.jsonl and
// an scmd -metrics file are interchangeable inputs to Analyze.
func (r *Recorder) WriteSteps(f *os.File) error {
	snap := r.History(1, nil)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range snap.Records {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Report is the outcome of an offline Analyze pass.
type Report struct {
	// Path is the analyzed bundle directory or step log.
	Path string
	// Ranks and Records describe the replayed input; Steps is how
	// many steps completed the detector pass.
	Ranks   int
	Records int64
	Steps   int64
	// Replayed holds the anomalies the offline detector replay found,
	// ranked by Score descending.
	Replayed []Anomaly
	// Recorded holds the anomalies the run itself logged (from the
	// bundle's anomalies.jsonl; empty when analyzing a bare step
	// log), in log order.
	Recorded []Anomaly
}

// Hard counts the hard anomalies across both the replayed and the
// recorded sets — the "this run actually broke" signal analyze keys
// its exit status on.
func (r *Report) Hard() int {
	n := 0
	for _, a := range r.Replayed {
		if a.Hard {
			n++
		}
	}
	for _, a := range r.Recorded {
		if a.Hard {
			n++
		}
	}
	return n
}

// Analyze replays the online detectors over a recorded step log —
// either a postmortem bundle directory or a bare steps.jsonl /
// scmd -metrics file — and returns the ranked findings. The replay
// uses the same detector code the live run ran, so a bundle's
// recorded anomalies are reproducible offline.
func Analyze(path string) (*Report, error) {
	stepsPath := path
	anomPath := ""
	if fi, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("flight: analyze %s: %w", path, err)
	} else if fi.IsDir() {
		stepsPath = filepath.Join(path, BundleSteps)
		anomPath = filepath.Join(path, BundleAnomalies)
	}

	records, err := readStepRecords(stepsPath)
	if err != nil {
		return nil, err
	}
	ranks := 1
	for _, rec := range records {
		if rec.Rank+1 > ranks {
			ranks = rec.Rank + 1
		}
	}
	rec := New(Config{Ranks: ranks})
	for _, r := range records {
		rec.ObserveStep(r)
	}
	rec.Flush()

	rep := &Report{
		Path:    path,
		Ranks:   ranks,
		Records: rec.Records(),
		Steps:   rec.CompletedSteps(),
	}
	rep.Replayed = rec.Anomalies().Anomalies
	sort.SliceStable(rep.Replayed, func(i, j int) bool {
		return rep.Replayed[i].Score > rep.Replayed[j].Score
	})
	if anomPath != "" {
		if recorded, err := readAnomalies(anomPath); err == nil {
			rep.Recorded = recorded
		}
	}
	return rep, nil
}

// readStepRecords reads a JSONL step log, skipping non-record lines
// (the trailing {"snapshot": …} line of scmd -metrics files).
func readStepRecords(path string) ([]obs.StepRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flight: analyze: %w", err)
	}
	defer f.Close()
	var out []obs.StepRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Step *int `json:"step"`
			Rank *int `json:"rank"`
		}
		if err := json.Unmarshal(line, &probe); err != nil || probe.Step == nil || probe.Rank == nil {
			continue
		}
		var rec obs.StepRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flight: analyze %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("flight: analyze %s: no step records", path)
	}
	return out, nil
}

func readAnomalies(path string) ([]Anomaly, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Anomaly
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var a Anomaly
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			continue
		}
		if a.Kind != "" {
			out = append(out, a)
		}
	}
	return out, sc.Err()
}
