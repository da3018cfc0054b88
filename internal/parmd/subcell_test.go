package parmd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
)

// TestSubdivision: silica's 2.6 Å triplets get 2 sub-cells per 5.7 Å
// pair cell; a model whose cutoffs all exceed half the cell side, and
// Hybrid-MD's single pair search, get one.
func TestSubdivision(t *testing.T) {
	silica := potential.NewSilicaModel()
	lj := potential.NewLJModel(0.0104, 3.4, 8.5, 39.95)
	for _, tc := range []struct {
		scheme Scheme
		model  *potential.Model
		side   float64
		want   int
	}{
		{SchemeSC, silica, 5.728, 2},
		{SchemeFS, silica, 5.728, 2},
		{SchemeSC, silica, 7.16, 2},
		{SchemeSC, silica, 8.0, 3},
		{SchemeHybrid, silica, 5.728, 1},
		{SchemeSC, lj, 8.5, 1},
		{SchemeFS, lj, 16.9, 1},
	} {
		if got := tc.scheme.subdivision(tc.model, tc.side); got != tc.want {
			t.Errorf("%v %s side %g: K = %d, want %d", tc.scheme, tc.model.Name, tc.side, got, tc.want)
		}
	}
}

// TestSubCellTupleSetExact: with atoms exactly on sub-cell planes (the
// pair cells' mid-planes) and on rank boundary planes, every rank must
// agree on each atom's sub-cell, so each tuple is evaluated exactly
// once. The crystal is shifted by a/40 per axis: lattice sites, at
// multiples of a/8, then fall on the sub-cell plane 0.4a (the
// mid-plane of pair cell 0) and on the plane 2.4a between pair cells 2
// and 3 — the rank boundary of every 2-way split of the 5-cell axis.
// The tuples counted over all ranks must equal the brute-force
// |S(2)| + |S(3)| exactly, and the forces must match the serial SC
// engine within TestParallelForcesMatchSerial's tolerance.
func TestSubCellTupleSetExact(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 0, 0)
	const a = 7.16
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(a/40, a/40, a/40)))
	}
	// The fixture must really put atoms on both kinds of plane.
	onPlane := func(x, p float64) bool { return math.Abs(x-p) < 1e-9 }
	var onSub, onRank int
	for _, p := range cfg.Pos {
		if onPlane(p.X, 0.4*a) {
			onSub++
		}
		if onPlane(p.X, 2.4*a) {
			onRank++
		}
	}
	if onSub == 0 || onRank == 0 {
		t.Fatalf("fixture puts %d atoms on the sub-cell plane and %d on the rank plane; want both > 0", onSub, onRank)
	}

	var want int64
	for _, term := range model.Terms {
		want += int64(len(tuple.BruteForce(cfg.Box, cfg.Pos, term.N(), term.Cutoff())))
	}
	wantF, wantPE, _ := serialReference(t, cfg, model, 0, 1)

	for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
		for _, dims := range []geom.IVec3{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}} {
			for _, noOverlap := range []bool{false, true} {
				label := fmt.Sprintf("%v %v noOverlap=%v", scheme, dims, noOverlap)
				cart, err := comm.NewCartDims(dims)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, model, Options{Scheme: scheme, Cart: cart, Dt: 1, Steps: 0, NoOverlap: noOverlap})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var got int64
				for _, s := range res.RankStats {
					got += s.TuplesEvaluated
				}
				if got != want {
					t.Errorf("%s: ranks evaluated %d tuples, brute force finds %d", label, got, want)
				}
				if rel := math.Abs(res.InitialPotential-wantPE) / math.Abs(wantPE); rel > 1e-10 {
					t.Errorf("%s: PE %.12g, serial %.12g (rel %g)", label, res.InitialPotential, wantPE, rel)
				}
				for i := range wantF {
					if d := res.Forces[i].Sub(wantF[i]).Norm(); d > 1e-8 {
						t.Errorf("%s: atom %d force differs from serial by %g", label, i, d)
						break
					}
				}
			}
		}
	}
}

// TestHaloRecordFineCell: the halo record's cell field carries the
// sender's fine (sub-cell) extended cell. appendHalo keeps it as sent
// — including a sub-cell no float recomputation is asked for — and
// rejects a fine cell outside the receiver's subdivided extended
// lattice as a malformed halo message, not a panic.
func TestHaloRecordFineCell(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 3)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
	if err != nil {
		t.Fatal(err)
	}
	world := comm.NewWorld(cart.Size())
	err = world.Run(func(p *comm.Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		r, err := newRankState(p, dec, model, SchemeSC, 1, true)
		if err != nil {
			return err
		}
		if r.sub != 2 {
			return fmt.Errorf("silica K = %d, want 2", r.sub)
		}
		r.adopt(cfg)
		r.deriveOwned()
		dims := r.fineLat.Dims
		if dims != r.extLat.Dims.Scale(2) {
			return fmt.Errorf("fine extended lattice %v, want 2 × %v", dims, r.extLat.Dims)
		}

		fine := geom.IV(dims.X-1, 1, dims.Z-2)
		buf := p.AcquireBuffer()
		putHaloAtom(buf, 7, 1, fine, geom.V(1, 2, 3))
		if err := r.appendHalo(0, buf); err != nil {
			return fmt.Errorf("in-lattice fine cell rejected: %v", err)
		}
		if got := r.ecell[len(r.ecell)-1]; got != fine {
			return fmt.Errorf("fine cell %v arrived as %v", fine, got)
		}
		if got, want := r.coarse(fine), geom.IV(dims.X/2-1, 0, dims.Z/2-1); got != want {
			return fmt.Errorf("fine cell %v maps to cell %v, want %v", fine, got, want)
		}

		for _, bad := range []geom.IVec3{dims, {X: dims.X, Y: 0, Z: 0}, {X: -1, Y: 0, Z: 0}, {X: 0, Y: 0, Z: dims.Z}} {
			buf := p.AcquireBuffer()
			putHaloAtom(buf, 9, 0, bad, geom.V(0, 0, 0))
			err := r.appendHalo(0, buf)
			if err == nil {
				return fmt.Errorf("fine cell %v outside %v accepted", bad, dims)
			}
			if !strings.Contains(err.Error(), "malformed halo message") {
				return fmt.Errorf("fine cell %v: error %q lacks the malformed-halo diagnostic", bad, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
