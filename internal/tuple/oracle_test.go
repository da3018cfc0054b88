package tuple

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
)

// refWalk is the reference the prefix-shared walk must reproduce: every
// path on its own, resolving each of its offsets and extending level by
// level from level 0, with every check counted where it runs. It reads
// only the enumerator's configuration (binning, pattern, mode, cutoff,
// dedup, keys), none of its tables or scratch.
type refWalk struct {
	e      *Enumerator
	pi     int
	index  []int32
	lo, hi [MaxN]int32
	shift  [MaxN]geom.Vec3
	atoms  [MaxN]int32
	pos    [MaxN]geom.Vec3
}

func (w *refWalk) visitCell(q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	e := w.e
	lat := e.bin.Lat
	st.Cells++
	w.index = nil
	if !e.bin.Spans() {
		w.index = e.bin.Atoms
	}
	for pi, p := range e.pattern.Paths() {
		st.PathApplications++
		empty := false
		for k, v := range p {
			cq := q.Add(v)
			var i int
			if e.bounded {
				if !cq.InBox(lat.Dims) {
					empty = true
					break
				}
				i = lat.Linear(cq)
				w.shift[k] = geom.Vec3{}
			} else {
				i = lat.Linear(lat.WrapCell(cq))
				w.shift[k] = lat.ImageShift(cq)
			}
			if e.bin.Spans() {
				w.lo[k], w.hi[k] = e.bin.CellSpan(i)
			} else {
				w.lo[k], w.hi[k] = e.bin.Start[i], e.bin.Start[i+1]
			}
			if w.lo[k] == w.hi[k] {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		w.pi = pi
		w.extend(0, positions, fn, st)
	}
}

func (w *refWalk) extend(k int, positions []geom.Vec3, fn Visitor, st *Stats) {
	e := w.e
	for j := w.lo[k]; j < w.hi[k]; j++ {
		ai := j
		if w.index != nil {
			ai = w.index[j]
		}
		st.Candidates++
		dup := false
		for m := 0; m < k; m++ {
			if w.atoms[m] == ai {
				dup = true
			}
		}
		if dup {
			st.DuplicateAtom++
			continue
		}
		r := positions[ai].Add(w.shift[k])
		if k > 0 && r.Sub(w.pos[k-1]).Norm2() >= e.cutoff2 {
			st.DistancePruned++
			continue
		}
		w.atoms[k], w.pos[k] = ai, r
		if k+1 < e.n {
			w.extend(k+1, positions, fn, st)
			continue
		}
		mirror := e.keyOf(w.atoms[0]) > e.keyOf(w.atoms[e.n-1])
		if (e.dedup == DedupPalindromic && e.pattern.Path(w.pi).IsSelfReflective() && mirror) ||
			(e.dedup == DedupCanonical && mirror) {
			st.ReflectionCut++
			continue
		}
		st.Emitted++
		fn(w.atoms[:e.n], w.pos[:e.n])
	}
}

// callLog records a visitor call sequence: per call, each atom and the
// bit pattern of each position component.
type callLog []uint64

func (l *callLog) visitor() Visitor {
	return func(atoms []int32, pos []geom.Vec3) {
		for k, a := range atoms {
			*l = append(*l, uint64(a),
				math.Float64bits(pos[k].X), math.Float64bits(pos[k].Y), math.Float64bits(pos[k].Z))
		}
	}
}

// oracleSystem places atoms uniformly except in a void slab x < side/3,
// so whole layers of cells are empty, and returns the positions in
// cell-sorted order with their cells, ready for both binning layouts.
func oracleSystem(t *testing.T, seed int64, natoms int, side float64, dims geom.IVec3) ([]geom.Vec3, []int32, cell.Lattice) {
	t.Helper()
	lat, err := cell.NewLatticeDims(geom.NewCubicBox(side), dims)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, natoms)
	for i := range pos {
		pos[i] = geom.V(side/3+rng.Float64()*2*side/3, rng.Float64()*side, rng.Float64()*side)
	}
	cellOf := func(r geom.Vec3) int32 { return int32(lat.Linear(lat.CellOf(r))) }
	sort.SliceStable(pos, func(i, j int) bool { return cellOf(pos[i]) < cellOf(pos[j]) })
	cells := make([]int32, natoms)
	for i, r := range pos {
		cells[i] = cellOf(r)
	}
	return pos, cells, lat
}

// TestSharedWalkMatchesPathByPath is the oracle test of the
// prefix-shared walk: on every pattern shape, binning layout and
// lattice mode, the visitor call sequence (atoms and position bits) and
// every Stats counter equal the path-by-path reference's.
func TestSharedWalkMatchesPathByPath(t *testing.T) {
	shuffled := core.SC(3).Paths()
	perm := rand.New(rand.NewSource(5)).Perm(len(shuffled))
	paths := make([]core.Path, len(shuffled))
	for i, j := range perm {
		paths[i] = shuffled[j]
	}
	patterns := []struct {
		name    string
		pattern *core.Pattern
		radius  float64
	}{
		{"SC2", core.SC(2), 1},
		{"SC3", core.SC(3), 1},
		{"FS3", core.FS(3), 1},
		{"SCRadius3k2", core.SCRadius(3, 2), 2},
		{"SC4", core.SC(4), 1},
		{"SC3shuffled", core.NewPattern(3, paths...), 1},
	}
	const side = 9.0
	dims := geom.IV(6, 6, 6)
	pos, cells, lat := oracleSystem(t, 41, 140, side, dims)
	keys := make([]int64, len(pos))
	for i, k := range rand.New(rand.NewSource(42)).Perm(len(pos)) {
		keys[i] = int64(k) * 3
	}
	csr := cell.NewBinning(lat, pos)
	spans := cell.NewBinning(lat, pos)
	if err := spans.RebinSpans(cells); err != nil {
		t.Fatal(err)
	}
	emptyCells := 0
	for i := 0; i < lat.NumCells(); i++ {
		if len(csr.CellAtomsLinear(i)) == 0 {
			emptyCells++
		}
	}
	if emptyCells == 0 {
		t.Fatal("configuration has no empty cells")
	}

	for _, pc := range patterns {
		cutoff := 0.9 * pc.radius * lat.Side.X
		for _, layout := range []struct {
			name string
			bin  *cell.Binning
		}{{"csr", csr}, {"spans", spans}} {
			for _, bounded := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/bounded=%v", pc.name, layout.name, bounded)
				t.Run(name, func(t *testing.T) {
					ctor := NewEnumerator
					if bounded {
						ctor = NewBoundedEnumerator
					}
					e, err := ctor(layout.bin, pc.pattern, cutoff, DedupAuto)
					if err != nil {
						t.Fatal(err)
					}
					e.SetKeys(keys)
					var got, want callLog
					var gotSt, wantSt Stats
					e.VisitInto(pos, got.visitor(), &gotSt)
					ref := &refWalk{e: e}
					for i := 0; i < lat.NumCells(); i++ {
						ref.visitCell(lat.CellAt(i), pos, want.visitor(), &wantSt)
					}
					if gotSt != wantSt {
						t.Errorf("stats differ:\n shared %+v\n ref    %+v", gotSt, wantSt)
					}
					if wantSt.Emitted == 0 {
						t.Error("reference emitted nothing; the case checks no order")
					}
					if len(got) != len(want) {
						t.Fatalf("call log length %d, reference %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("call log differs at word %d (call %d)", i, i/(4*e.N()))
						}
					}
				})
			}
		}
	}
}

// TestVisitCellsZeroAllocs: once its prefix scratch has grown, an
// enumerator allocates nothing per call, on both binning layouts.
func TestVisitCellsZeroAllocs(t *testing.T) {
	pos, cells, lat := oracleSystem(t, 43, 200, 9.0, geom.IV(6, 6, 6))
	csr := cell.NewBinning(lat, pos)
	spans := cell.NewBinning(lat, pos)
	if err := spans.RebinSpans(cells); err != nil {
		t.Fatal(err)
	}
	anchors := make([]geom.IVec3, lat.NumCells())
	for i := range anchors {
		anchors[i] = lat.CellAt(i)
	}
	var sink int
	fn := func(atoms []int32, _ []geom.Vec3) { sink += len(atoms) }
	for _, layout := range []struct {
		name string
		bin  *cell.Binning
	}{{"csr", csr}, {"spans", spans}} {
		e, err := NewBoundedEnumerator(layout.bin, core.SC(3), 1.35, DedupAuto)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		e.VisitCellsInto(anchors, pos, fn, &st)
		if st.Emitted == 0 {
			t.Fatalf("%s: nothing emitted", layout.name)
		}
		if a := testing.AllocsPerRun(5, func() { e.VisitCellsInto(anchors, pos, fn, &st) }); a != 0 {
			t.Errorf("%s: %v allocs per warm VisitCellsInto, want 0", layout.name, a)
		}
	}
}

// TestEnumeratorRejectsSingleAtomPattern: a 1-tuple pattern has no
// (v0, v1) prefix for the walk to share, so both constructors refuse it.
func TestEnumeratorRejectsSingleAtomPattern(t *testing.T) {
	_, _, bin := testSystem(t, 44, 10, 8.0, geom.IV(4, 4, 4))
	single := core.NewPattern(1, core.NewPath(geom.IVec3{}))
	if _, err := NewEnumerator(bin, single, 0, DedupAuto); err == nil {
		t.Error("n=1 pattern accepted by NewEnumerator")
	}
	if _, err := NewBoundedEnumerator(bin, single, 0, DedupAuto); err == nil {
		t.Error("n=1 pattern accepted by NewBoundedEnumerator")
	}
}
