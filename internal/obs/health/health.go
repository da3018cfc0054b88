// Package health is the in-run invariant-probe layer of the parallel
// MD stack: a sampled monitor that checks, at a configurable cadence
// inside the step loop, the physical and structural invariants a
// correct parallel MD code must preserve — total-energy drift relative
// to the initial kinetic energy, total linear momentum, global
// atom-count conservation across migration, halo mirror consistency
// (exported-vs-imported checksums per exchange phase), and SC-vs-FS
// tuple-count parity on sampled steps.
//
// Every probe observation classifies into a severity (OK, Warn, Fail)
// against fixed thresholds. Every observation is recorded into the
// probe summary (and a metrics Registry, when one is configured); warn
// and fail observations also emit a structured log event through the
// obs.Logger seam; and with AbortOnFail a fail aborts the run. Abort
// is cooperative and collective — a failing probe arms the monitor,
// and the simulation loop turns the armed state into an error at a
// global synchronization point, so no rank ever exits an exchange
// protocol unilaterally (which would deadlock its peers).
//
// A nil *Monitor is a valid disabled monitor: Due and ParityDue return
// false after a single nil test, every Observe call is a no-op, and
// the step loop's probe sites cost one branch — the same zero-cost-
// when-disabled contract the span recorder keeps (asserted by the
// halo-exchange zero-allocation tests in package parmd).
package health

import (
	"fmt"
	"math"
	"sync"

	"sctuple/internal/obs"
)

// Severity classifies one probe observation.
type Severity uint8

// Probe severities, in escalation order.
const (
	OK Severity = iota
	Warn
	Fail
)

// String names the severity for logs and summaries.
func (s Severity) String() string {
	switch s {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Fail:
		return "fail"
	}
	return fmt.Sprintf("severity#%d", uint8(s))
}

// The probe thresholds.
const (
	// energyWarn and energyFail bound the relative total-energy drift
	// |E(t) − E₀| / KE₀ of an NVE run: a healthy velocity-Verlet
	// trajectory at MD time steps oscillates a few 1e-3 of KE₀ around
	// E₀, a percent-level excursion deserves a look, and a tenth of
	// the kinetic scale means the integration is broken.
	energyWarn, energyFail = 1e-2, 1e-1
	// momentumWarn and momentumFail bound the total linear momentum
	// drift |P(t) − P₀| relative to the Σ m|v| momentum scale at the
	// baseline.
	momentumWarn, momentumFail = 1e-9, 1e-5
)

// Config tunes a Monitor. The zero value of any field selects its
// default.
type Config struct {
	// Every is the probe cadence in steps: the cheap invariant probes
	// (energy, momentum, atom count, halo mirrors) run on steps where
	// step % Every == 0. Default 1 (every step).
	Every int
	// ParityEvery is the cadence of the expensive SC-vs-FS tuple-count
	// parity probe (it gathers the configuration and re-enumerates both
	// patterns serially). 0 disables parity probing.
	ParityEvery int
	// AbortOnFail arms the monitor on the first failing observation so
	// the simulation loop aborts the run at its next collective
	// synchronization point. Off, a fail is recorded and logged only.
	AbortOnFail bool

	// Logger receives a structured event for every warn and fail
	// observation (nil drops them).
	Logger *obs.Logger
	// Registry receives per-probe severity counters
	// (health.<probe>.{ok,warn,fail}) and last-value gauges
	// (health.<probe>.value) for every observation (nil drops them).
	Registry *obs.Registry
}

// Probe names, shared by summaries, registry metrics, and log events.
const (
	ProbeEnergyDrift = "energy_drift"
	ProbeMomentum    = "momentum"
	ProbeAtomCount   = "atom_count"
	ProbeHaloMirror  = "halo_mirror"
	ProbeTupleParity = "tuple_parity"
)

// FailError reports the probe failure that aborted a run.
type FailError struct {
	Probe     string
	Step      int
	Rank      int
	Value     float64
	Threshold float64
}

// Error formats the failure with its full context.
func (e *FailError) Error() string {
	return fmt.Sprintf("health: probe %s failed at step %d (rank %d): value %g exceeds threshold %g",
		e.Probe, e.Step, e.Rank, e.Value, e.Threshold)
}

// ErrPeerFailure is returned by ranks whose own probes passed when the
// collective abort check learns another rank armed an abort.
var ErrPeerFailure = fmt.Errorf("health: probe failed on another rank")

// probeState accumulates one probe's observations.
type probeState struct {
	name       string
	ok         int64
	warn       int64
	fail       int64
	worst      float64
	last       float64
	lastStep   int
	lastSevere Severity
}

// Monitor runs the sampled invariant probes of one simulation. All
// methods are safe for concurrent use by multiple ranks; a nil
// *Monitor is a valid disabled monitor.
type Monitor struct {
	cfg Config

	mu          sync.Mutex
	probes      map[string]*probeState
	order       []string
	baselineSet bool
	e0          float64 // total energy at the first sampled step
	keDenom     float64 // |KE₀| fallback chain, for the relative drift
	p0          [3]float64
	pScale      float64
	abort       *FailError
}

// New builds a Monitor, applying defaults for zero Config fields.
func New(cfg Config) *Monitor {
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	return &Monitor{cfg: cfg, probes: make(map[string]*probeState)}
}

// Due reports whether the cheap invariant probes sample the given step
// (false on a nil monitor).
func (m *Monitor) Due(step int) bool {
	return m != nil && step >= 0 && step%m.cfg.Every == 0
}

// ParityDue reports whether the tuple-parity probe samples the given
// step (false on a nil monitor or when parity probing is disabled).
func (m *Monitor) ParityDue(step int) bool {
	return m != nil && m.cfg.ParityEvery > 0 && step >= 0 && step%m.cfg.ParityEvery == 0
}

// ParityEnabled reports whether the tuple-parity probe will sample any
// step of the run — the hook rank 0 uses to pre-build the probe's
// enumerators outside the step loop.
func (m *Monitor) ParityEnabled() bool {
	return m != nil && m.cfg.ParityEvery > 0
}

// ObserveEnergy feeds one sampled global energy measurement. The first
// observation sets the baseline E₀ and the KE₀ normalization; later
// observations classify |E − E₀| / KE₀ against the energy thresholds.
func (m *Monitor) ObserveEnergy(step int, pe, ke float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if !m.baselineSet {
		m.e0 = pe + ke
		// KE₀ normalizes the drift; a cold start (KE₀ = 0) falls back
		// to |E₀|, and a fully degenerate baseline to 1.
		m.keDenom = math.Abs(ke)
		if m.keDenom == 0 {
			m.keDenom = math.Abs(m.e0)
		}
		if m.keDenom == 0 {
			m.keDenom = 1
		}
		m.baselineSet = true
		m.mu.Unlock()
		m.observe(ProbeEnergyDrift, step, -1, 0, energyWarn, energyFail)
		return
	}
	drift := math.Abs((pe+ke)-m.e0) / m.keDenom
	if !isFinite(pe + ke) {
		drift = math.Inf(1)
	}
	m.mu.Unlock()
	m.observe(ProbeEnergyDrift, step, -1, drift, energyWarn, energyFail)
}

// ObserveMomentum feeds one sampled total linear momentum (amu·Å/fs
// components) with its normalization scale Σ m|v|. The first
// observation sets the baseline P₀; later ones classify |P − P₀|
// relative to the baseline scale.
func (m *Monitor) ObserveMomentum(step int, px, py, pz, scale float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if _, ok := m.probes[ProbeMomentum]; !ok {
		m.p0 = [3]float64{px, py, pz}
		m.pScale = math.Abs(scale)
		if m.pScale == 0 {
			m.pScale = 1
		}
		m.mu.Unlock()
		m.observe(ProbeMomentum, step, -1, 0, momentumWarn, momentumFail)
		return
	}
	dx, dy, dz := px-m.p0[0], py-m.p0[1], pz-m.p0[2]
	drift := math.Sqrt(dx*dx+dy*dy+dz*dz) / m.pScale
	if !isFinite(px + py + pz) {
		drift = math.Inf(1)
	}
	m.mu.Unlock()
	m.observe(ProbeMomentum, step, -1, drift, momentumWarn, momentumFail)
}

// ObserveAtomCount feeds one sampled global atom count against the
// run's invariant total. Any mismatch is a Fail (atoms were lost or
// duplicated in migration — there is no benign amount).
func (m *Monitor) ObserveAtomCount(step int, got, want int64) {
	if m == nil {
		return
	}
	m.observeExact(ProbeAtomCount, step, -1, float64(got-want), got == want)
}

// ObserveHaloMirror feeds one rank's halo-consistency check for one
// exchange phase: the checksum this rank computed over the bytes it
// received versus the checksum its peer computed over the bytes it
// sent. A mismatch is a Fail (the mirror copies diverged in flight).
func (m *Monitor) ObserveHaloMirror(step, rank int, local, remote uint64) {
	if m == nil {
		return
	}
	diff := 0.0
	if local != remote {
		diff = 1
	}
	m.observeExact(ProbeHaloMirror, step, rank, diff, local == remote)
}

// ObserveTupleParity feeds one sampled SC-vs-FS tuple-count
// comparison: the number of tuples the shift-collapse pattern
// enumerates versus the deduplicated full-shell count on the same
// configuration. Any disagreement is a Fail (the SC search dropped or
// invented tuples).
func (m *Monitor) ObserveTupleParity(step int, sc, fs int64) {
	if m == nil {
		return
	}
	m.observeExact(ProbeTupleParity, step, -1, float64(sc-fs), sc == fs)
}

// observeExact handles the binary probes: pass = OK with value 0,
// mismatch = Fail carrying the discrepancy.
func (m *Monitor) observeExact(probe string, step, rank int, value float64, pass bool) {
	if pass {
		m.observe(probe, step, rank, 0, 0.5, 0.5)
		return
	}
	if value == 0 {
		value = 1
	}
	m.observe(probe, step, rank, math.Abs(value)+1, 0.5, 0.5)
}

// observe classifies one observation, records it, logs warns and
// fails, and arms the abort on a fail under AbortOnFail.
func (m *Monitor) observe(probe string, step, rank int, value, warnTh, failTh float64) {
	sev := OK
	switch {
	case value >= failTh || math.IsNaN(value):
		sev = Fail
	case value >= warnTh:
		sev = Warn
	}

	m.mu.Lock()
	st := m.probes[probe]
	if st == nil {
		st = &probeState{name: probe}
		m.probes[probe] = st
		m.order = append(m.order, probe)
	}
	switch sev {
	case OK:
		st.ok++
	case Warn:
		st.warn++
	case Fail:
		st.fail++
	}
	if value > st.worst || math.IsNaN(value) {
		st.worst = value
	}
	st.last, st.lastStep, st.lastSevere = value, step, sev
	if sev == Fail && m.cfg.AbortOnFail && m.abort == nil {
		m.abort = &FailError{Probe: probe, Step: step, Rank: rank, Value: value, Threshold: failTh}
	}
	m.mu.Unlock()

	if m.cfg.Registry != nil {
		m.cfg.Registry.Counter("health." + probe + "." + sev.String()).Inc()
		m.cfg.Registry.Gauge("health." + probe + ".value").Set(value)
	}
	if sev == OK {
		return
	}
	args := []any{"probe", probe, "severity", sev.String(), "step", step, "value", value}
	if rank >= 0 {
		args = append(args, "rank", rank)
	}
	if sev == Fail {
		m.cfg.Logger.Error("health probe", append(args, "threshold", failTh)...)
	} else {
		m.cfg.Logger.Warn("health probe", append(args, "threshold", warnTh)...)
	}
}

// Logger exposes the monitor's configured logger (nil on a nil
// monitor or when none was configured) — probe implementations use it
// to report sites where a probe could not run, e.g. a lattice too
// small for the full-shell parity re-enumeration.
func (m *Monitor) Logger() *obs.Logger {
	if m == nil {
		return nil
	}
	return m.cfg.Logger
}

// AbortPending reports whether a failed probe armed an abort (always
// false on a nil monitor). The simulation loop reduces this flag over
// all ranks at a synchronization point and turns a set flag into
// AbortError on the arming rank and ErrPeerFailure elsewhere, so the
// abort is collective and cannot deadlock the exchange protocol.
func (m *Monitor) AbortPending() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.abort != nil
}

// AbortError returns the arming failure, or nil when no abort is
// pending.
func (m *Monitor) AbortError() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.abort == nil {
		return nil
	}
	return m.abort
}

// ProbeSummary is one probe's accumulated outcome.
type ProbeSummary struct {
	Probe    string  `json:"probe"`
	OK       int64   `json:"ok"`
	Warn     int64   `json:"warn"`
	Fail     int64   `json:"fail"`
	Worst    float64 `json:"worst"`
	Last     float64 `json:"last"`
	LastStep int     `json:"last_step"`
}

// Severity returns the probe's worst observed severity.
func (p ProbeSummary) Severity() Severity {
	switch {
	case p.Fail > 0:
		return Fail
	case p.Warn > 0:
		return Warn
	}
	return OK
}

// Summary is the monitor's accumulated outcome, one entry per probe in
// first-observation order.
type Summary struct {
	Probes []ProbeSummary `json:"probes"`
}

// Healthy reports whether every probe stayed OK.
func (s Summary) Healthy() bool {
	for _, p := range s.Probes {
		if p.Severity() != OK {
			return false
		}
	}
	return true
}

// Probe returns the summary of one probe (zero value when the probe
// never observed anything).
func (s Summary) Probe(name string) ProbeSummary {
	for _, p := range s.Probes {
		if p.Probe == name {
			return p
		}
	}
	return ProbeSummary{Probe: name}
}

// Summary snapshots the monitor's accumulated probe outcomes (empty on
// a nil monitor).
func (m *Monitor) Summary() Summary {
	if m == nil {
		return Summary{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Summary{Probes: make([]ProbeSummary, 0, len(m.order))}
	for _, name := range m.order {
		st := m.probes[name]
		s.Probes = append(s.Probes, ProbeSummary{
			Probe: st.name, OK: st.ok, Warn: st.warn, Fail: st.fail,
			Worst: st.worst, Last: st.last, LastStep: st.lastStep,
		})
	}
	return s
}

// Totals returns the cumulative ok/warn/fail observation counts
// summed over all probes (zeros on a nil monitor). Unlike Summary it
// is allocation-free, so in-loop consumers — the flight recorder's
// warn-streak detector samples it every step — can poll it without
// touching the heap.
func (m *Monitor) Totals() (ok, warn, fail int64) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.probes {
		ok += st.ok
		warn += st.warn
		fail += st.fail
	}
	return ok, warn, fail
}

// Checksum64 is the FNV-1a hash the halo mirror probe runs over wire
// payloads — cheap, allocation-free, and identical on both endpoints.
func Checksum64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
