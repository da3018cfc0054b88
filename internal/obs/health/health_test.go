package health

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"testing"

	"sctuple/internal/obs"
)

// TestNilMonitorIsInert: a nil monitor is the documented disabled
// state — never due, every observation a no-op, no abort, empty
// summary.
func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	if m.Due(0) || m.ParityDue(0) {
		t.Error("nil monitor reports probes due")
	}
	m.ObserveEnergy(0, -100, 10)
	m.ObserveMomentum(0, 1, 2, 3, 4)
	m.ObserveAtomCount(0, 5, 6)
	m.ObserveHaloMirror(0, 0, 1, 2)
	m.ObserveTupleParity(0, 7, 8)
	if m.AbortPending() {
		t.Error("nil monitor has an abort pending")
	}
	if err := m.AbortError(); err != nil {
		t.Errorf("nil monitor abort error: %v", err)
	}
	if s := m.Summary(); len(s.Probes) != 0 || !s.Healthy() {
		t.Errorf("nil monitor summary: %+v", s)
	}
	if m.Logger() != nil {
		t.Error("nil monitor returned a logger")
	}
}

func TestCadence(t *testing.T) {
	m := New(Config{Every: 5, ParityEvery: 10})
	for step, want := range map[int]bool{0: true, 1: false, 4: false, 5: true, 10: true} {
		if m.Due(step) != want {
			t.Errorf("Due(%d) = %v, want %v", step, m.Due(step), want)
		}
	}
	for step, want := range map[int]bool{0: true, 5: false, 10: true, 15: false, 20: true} {
		if m.ParityDue(step) != want {
			t.Errorf("ParityDue(%d) = %v, want %v", step, m.ParityDue(step), want)
		}
	}
	if New(Config{}).ParityDue(0) {
		t.Error("parity probing should default off")
	}
	if !New(Config{}).Due(3) {
		t.Error("default cadence should sample every step")
	}
}

// TestEnergyEscalation injects a drifting total energy — the signature
// of a broken integrator — and asserts the ok → warn → fail
// escalation against the energy thresholds (warn 1e-2, fail 1e-1).
func TestEnergyEscalation(t *testing.T) {
	m := New(Config{})
	const pe0, ke0 = -100.0, 10.0
	m.ObserveEnergy(0, pe0, ke0)          // baseline
	m.ObserveEnergy(1, pe0+5e-3*ke0, ke0) // drift 5e-3 of KE₀: ok
	m.ObserveEnergy(2, pe0+5e-2*ke0, ke0) // drift 5e-2 of KE₀: warn
	m.ObserveEnergy(3, pe0+ke0, ke0)      // drift 1.0 of KE₀: fail

	p := m.Summary().Probe(ProbeEnergyDrift)
	if p.OK != 2 || p.Warn != 1 || p.Fail != 1 {
		t.Fatalf("energy escalation: ok=%d warn=%d fail=%d, want 2/1/1", p.OK, p.Warn, p.Fail)
	}
	if p.Severity() != Fail {
		t.Errorf("probe severity %v, want Fail", p.Severity())
	}
	if math.Abs(p.Worst-1.0) > 1e-12 {
		t.Errorf("worst drift %g, want 1.0", p.Worst)
	}
	if m.Summary().Healthy() {
		t.Error("summary healthy after a fail")
	}
	// Abort was not configured, so even a fail does not arm it.
	if m.AbortPending() {
		t.Error("abort armed without AbortOnFail")
	}
}

// TestNonFiniteEnergyFails: a NaN or Inf total energy is an immediate
// fail regardless of thresholds — the first symptom of a blown-up run.
func TestNonFiniteEnergyFails(t *testing.T) {
	m := New(Config{})
	m.ObserveEnergy(0, -100, 10)
	m.ObserveEnergy(1, math.NaN(), 10)
	if p := m.Summary().Probe(ProbeEnergyDrift); p.Fail != 1 {
		t.Errorf("NaN energy: fail=%d, want 1", p.Fail)
	}
}

// TestMomentumDrift classifies relative momentum drift against the
// momentum thresholds (warn 1e-9, fail 1e-5).
func TestMomentumDrift(t *testing.T) {
	m := New(Config{})
	m.ObserveMomentum(0, 0, 0, 0, 100)    // baseline, scale Σm|v| = 100
	m.ObserveMomentum(1, 1e-5, 0, 0, 100) // relative 1e-7: warn
	m.ObserveMomentum(2, 1e-2, 0, 0, 100) // relative 1e-4: fail
	p := m.Summary().Probe(ProbeMomentum)
	if p.OK != 1 || p.Warn != 1 || p.Fail != 1 {
		t.Errorf("momentum: ok=%d warn=%d fail=%d, want 1/1/1", p.OK, p.Warn, p.Fail)
	}
}

// TestExactProbes: atom count, halo mirror, and tuple parity are
// binary — any mismatch is a fail, matches are ok.
func TestExactProbes(t *testing.T) {
	m := New(Config{})
	m.ObserveAtomCount(0, 648, 648)
	m.ObserveAtomCount(1, 647, 648)
	m.ObserveHaloMirror(0, 1, 0xdead, 0xdead)
	m.ObserveHaloMirror(1, 1, 0xdead, 0xbeef)
	m.ObserveTupleParity(0, 1000, 1000)
	m.ObserveTupleParity(1, 1000, 999)
	for _, probe := range []string{ProbeAtomCount, ProbeHaloMirror, ProbeTupleParity} {
		p := m.Summary().Probe(probe)
		if p.OK != 1 || p.Fail != 1 || p.Warn != 0 {
			t.Errorf("%s: ok=%d warn=%d fail=%d, want 1/0/1", probe, p.OK, p.Warn, p.Fail)
		}
	}
}

// TestAbortOnFail: with AbortOnFail, the first failing probe arms the
// abort and AbortError carries its context.
func TestAbortOnFail(t *testing.T) {
	m := New(Config{AbortOnFail: true})
	m.ObserveEnergy(0, -100, 10)
	if m.AbortPending() {
		t.Fatal("abort armed by the baseline observation")
	}
	m.ObserveHaloMirror(7, 3, 1, 2) // rank 3 fails at step 7
	m.ObserveEnergy(8, -100+100, 10)
	if !m.AbortPending() {
		t.Fatal("fail with AbortOnFail did not arm the abort")
	}
	err := m.AbortError()
	fe, ok := err.(*FailError)
	if !ok {
		t.Fatalf("abort error %T, want *FailError", err)
	}
	// The first failure wins; later fails must not overwrite it.
	if fe.Probe != ProbeHaloMirror || fe.Step != 7 || fe.Rank != 3 {
		t.Errorf("abort context = %+v, want halo_mirror step 7 rank 3", fe)
	}
	for _, want := range []string{ProbeHaloMirror, "step 7", "rank 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("abort error %q does not mention %q", err, want)
		}
	}
}

// TestActionsLogAndRecord: every observation exports severity
// counters plus a last-value gauge to the registry; warn/fail
// observations also emit structured log records with probe/step
// context, while ok observations are recorded only, even at Debug
// level.
func TestActionsLogAndRecord(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	m := New(Config{
		Logger:   obs.JSONLogger(&buf, slog.LevelDebug),
		Registry: reg,
	})
	m.ObserveEnergy(0, -100, 10)
	m.ObserveEnergy(5, -100+0.05*10, 10) // warn at 1e-2
	m.ObserveEnergy(6, -100+10, 10)      // fail at 1e-1

	out := buf.String()
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("%d log records, want 2 (warn and fail; ok is record-only):\n%s", lines, out)
	}
	if !strings.Contains(out, `"probe":"energy_drift"`) || !strings.Contains(out, `"step":5`) {
		t.Errorf("log output missing probe/step context: %s", out)
	}
	if !strings.Contains(out, "WARN") || !strings.Contains(out, "ERROR") {
		t.Errorf("log output missing severity levels: %s", out)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["health.energy_drift.ok"]; got != 1 {
		t.Errorf("ok counter = %d, want 1", got)
	}
	if got := snap.Counters["health.energy_drift.warn"]; got != 1 {
		t.Errorf("warn counter = %d, want 1", got)
	}
	if got := snap.Counters["health.energy_drift.fail"]; got != 1 {
		t.Errorf("fail counter = %d, want 1", got)
	}
	if got := snap.Gauges["health.energy_drift.value"]; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("value gauge = %g, want 1.0", got)
	}
}

func TestSummaryOrderAndLookup(t *testing.T) {
	m := New(Config{})
	m.ObserveHaloMirror(0, 0, 1, 1)
	m.ObserveEnergy(0, -1, 1)
	s := m.Summary()
	if len(s.Probes) != 2 || s.Probes[0].Probe != ProbeHaloMirror || s.Probes[1].Probe != ProbeEnergyDrift {
		t.Errorf("summary order: %+v, want first-observation order", s.Probes)
	}
	if p := s.Probe("no_such_probe"); p.OK != 0 || p.Probe != "no_such_probe" {
		t.Errorf("unknown probe lookup: %+v", p)
	}
}

func TestChecksum64(t *testing.T) {
	a := Checksum64([]byte("halo payload"))
	b := Checksum64([]byte("halo payload"))
	c := Checksum64([]byte("halo paylo4d"))
	if a != b {
		t.Error("checksum not deterministic")
	}
	if a == c {
		t.Error("checksum missed a byte flip")
	}
	if Checksum64(nil) != Checksum64([]byte{}) {
		t.Error("nil and empty payloads should hash alike")
	}
}
