package parmd

import (
	"fmt"
	"runtime"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/fixture"
	"sctuple/internal/geom"
)

const goldenParmdPath = "testdata/golden_parmd.json.gz"

// TestGoldenParallelBitIdentity pins the parallel step loop bit-for-bit
// against fixtures captured from the pre-refactor (unsorted, ID-order)
// rank storage: 6 steps of thermalized crystalline silica for every
// scheme, a 2-rank and a 2x2x2 topology, overlapped and synchronous
// halo exchange. Initial and per-step global potential energies and
// the gathered final forces and positions (ID order) are compared as
// raw bit patterns. The workload is a solid over a short run, so no
// atom migrates — asserted below, since the capture relies on owned
// storage keeping its adoption order on the pre-refactor side.
// Regenerate with GOLDEN_UPDATE=1 (amd64 only).
//
// Each run's per-class message and byte counts are pinned exactly
// against goldenCommVolume: exchange volume is a pure function of the
// decomposition, so any change to what crosses rank boundaries shows
// up here as a count, independent of host timing.
func TestGoldenParallelBitIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact fixtures are pinned on amd64; GOARCH=%s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("12 six-step parallel runs")
	}
	const (
		dt    = 0.5
		steps = 6
	)
	cfg, model := silicaConfig(t, 4, 300, 1)
	// Lattice sites sit exactly on the x=y=z=0 rank boundary planes;
	// translate the crystal so every atom clears every decomposition
	// plane by ≫ the thermal displacement of the run, keeping the
	// fixture migration-free by construction.
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(0.8, 0.8, 0.8)))
	}
	topos := []geom.IVec3{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}}

	got := fixture.Set{}
	for _, scheme := range Schemes() {
		for _, dims := range topos {
			for _, noOverlap := range []bool{false, true} {
				label := fmt.Sprintf("%v/%dx%dx%d/overlap", scheme, dims.X, dims.Y, dims.Z)
				if noOverlap {
					label = fmt.Sprintf("%v/%dx%dx%d/sync", scheme, dims.X, dims.Y, dims.Z)
				}
				cart, err := comm.NewCartDims(dims)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, model, Options{
					Scheme: scheme, Cart: cart, Dt: dt, Steps: steps,
					Workers: 2, TraceEnergies: true, NoOverlap: noOverlap,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkCommVolume(t, label, res.CommByClass)
				var migrated int64
				for _, s := range res.RankStats {
					migrated += s.AtomsMigrated
				}
				if migrated != 0 {
					t.Fatalf("%s: %d atoms migrated; fixture workload must be migration-free", label, migrated)
				}
				rec := fixture.Record{PE: fixture.Bits(res.InitialPotential)}
				for _, e := range res.Energies {
					rec.Energies = append(rec.Energies, fixture.Bits(e.Potential))
				}
				rec.Forces = fixture.PackVec3(res.Forces)
				rec.Pos = fixture.PackVec3(res.Final.Pos)
				got[label] = rec
			}
		}
	}

	if fixture.Update() {
		if err := fixture.Save(goldenParmdPath, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenParmdPath)
		return
	}
	want, err := fixture.Load(goldenParmdPath)
	if err != nil {
		t.Fatalf("load golden (run with GOLDEN_UPDATE=1 to capture): %v", err)
	}
	for label, rec := range got {
		w, ok := want[label]
		if !ok {
			t.Errorf("%s: no golden record", label)
			continue
		}
		if err := fixture.Diff(w, rec); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// classVolume is one traffic class's exact exchange volume over a run.
type classVolume struct{ msgs, bytes int64 }

// goldenCommVolume holds, per TestGoldenParallelBitIdentity label, the
// message and byte counts of every traffic class that carries any
// traffic; every class not listed must carry none. Overlapped and
// synchronous exchange send the same messages, and FS and Hybrid share
// the full-shell halo.
var goldenCommVolume = map[string]map[string]classVolume{
	"SC-MD/2x1x1/overlap":     sc2x1x1,
	"SC-MD/2x1x1/sync":        sc2x1x1,
	"SC-MD/2x2x2/overlap":     sc2x2x2,
	"SC-MD/2x2x2/sync":        sc2x2x2,
	"FS-MD/2x1x1/overlap":     fullShell2x1x1,
	"FS-MD/2x1x1/sync":        fullShell2x1x1,
	"FS-MD/2x2x2/overlap":     fullShell2x2x2,
	"FS-MD/2x2x2/sync":        fullShell2x2x2,
	"Hybrid-MD/2x1x1/overlap": fullShell2x1x1,
	"Hybrid-MD/2x1x1/sync":    fullShell2x1x1,
	"Hybrid-MD/2x2x2/overlap": fullShell2x2x2,
	"Hybrid-MD/2x2x2/sync":    fullShell2x2x2,
}

var (
	sc2x1x1 = map[string]classVolume{
		"halo": {42, 488544}, "force": {42, 244272}, "migrate": {24, 0}, "collective": {26, 208},
	}
	sc2x2x2 = map[string]classVolume{
		"halo": {168, 835968}, "force": {168, 417984}, "migrate": {288, 0}, "collective": {182, 1456},
	}
	fullShell2x1x1 = map[string]classVolume{
		"halo": {84, 3800832}, "force": {84, 1900416}, "migrate": {24, 0}, "collective": {26, 208},
	}
	fullShell2x2x2 = map[string]classVolume{
		"halo": {336, 8606304}, "force": {336, 4303152}, "migrate": {288, 0}, "collective": {182, 1456},
	}
)

func checkCommVolume(t *testing.T, label string, got map[string]comm.Stats) {
	t.Helper()
	want, ok := goldenCommVolume[label]
	if !ok {
		t.Errorf("%s: no golden comm volume", label)
		return
	}
	for class, s := range got {
		if g := (classVolume{s.Messages, s.Bytes}); g != want[class] {
			t.Errorf("%s: comm %s = %d msgs / %d B, want %d / %d",
				label, class, g.msgs, g.bytes, want[class].msgs, want[class].bytes)
		}
	}
	for class := range want {
		if _, ok := got[class]; !ok {
			t.Errorf("%s: comm class %s missing from the result", label, class)
		}
	}
}
