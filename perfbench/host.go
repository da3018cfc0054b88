package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"sctuple/internal/perfmodel"
)

// fingerprint identifies the host a result was measured on. The
// identity fields must match for two results to be compared; the
// perfmodel.LocalMachine constants are calibrated per run, so they are
// recorded for reference but vary between runs on one host.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`

	CandidateNs float64 `json:"local_candidate_ns"`
	PathNs      float64 `json:"local_path_ns"`
	PairEvalNs  float64 `json:"local_pair_eval_ns"`
	TripletNs   float64 `json:"local_triplet_eval_ns"`
	LatencyNs   float64 `json:"local_latency_ns"`
	BandwidthMB float64 `json:"local_bandwidth_mb_s"`
}

func (f fingerprint) identity() string {
	return fmt.Sprintf("%d cpu, GOMAXPROCS %d, %s %s/%s", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH)
}

// fingerprintHost calibrates perfmodel.LocalMachine and returns the
// fingerprint together with the calibrated machine.
func fingerprintHost() (fingerprint, perfmodel.Machine, error) {
	m, err := perfmodel.LocalMachine()
	if err != nil {
		return fingerprint{}, m, fmt.Errorf("calibrating the local machine: %w", err)
	}
	return fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CandidateNs: m.CandidateTime * 1e9, PathNs: m.PathTime * 1e9,
		PairEvalNs: m.PairEvalTime * 1e9, TripletNs: m.TripletEvalTime * 1e9,
		LatencyNs: m.Latency * 1e9, BandwidthMB: m.Bandwidth / 1e6,
	}, m, nil
}

// resetPeakRSS returns the freed heap to the OS and restarts the
// kernel's peak-RSS counter (VmHWM), so the next peakRSSMB reading
// covers only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) since
// the last resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks returns the host's cumulative steal and total CPU ticks
// from /proc/stat: time the hypervisor ran something else while this
// machine's CPUs had work.
func cpuTicks() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints the metrics of two result files side by side. It
// refuses results from different hosts or of different workloads or
// modes: their differences would not be the program's.
func compare(w io.Writer, oldPath, newPath string) error {
	a, err := loadRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := loadRecord(newPath)
	if err != nil {
		return err
	}
	if a.Host.identity() != b.Host.identity() {
		return fmt.Errorf("refusing to compare: host fingerprints differ (%s vs %s)", a.Host.identity(), b.Host.identity())
	}
	if a.Workload.Name != b.Workload.Name || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload.Name, a.Trace, b.Workload.Name, b.Trace)
	}
	names := make([]string, 0, len(a.Output.Metrics))
	for name := range a.Output.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s, %s: %s (seed %d) vs %s (seed %d)\n", a.Workload.Name, a.Host.identity(), oldPath, a.Seed, newPath, b.Seed)
	for _, name := range names {
		x := a.Output.Metrics[name]
		y, ok := b.Output.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s  (missing in new)\n", name, x.Value, x.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %-6s %+8.2f%%\n", name, x.Value, y.Value, x.Unit, 100*ratio(y.Value-x.Value, x.Value))
	}
	return nil
}
