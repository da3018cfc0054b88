// Package tuple implements the uniform-cell-pattern (UCP) n-tuple
// enumeration engine (paper Table 1): given a binned atom
// configuration, a computation pattern, and an interaction cutoff, it
// streams every range-limited n-tuple of the force set to a visitor
// callback.
//
// The engine realizes Eq. 9-10: for every cell q of the domain and
// every path p = (v0,…,v(n-1)) of the pattern it enumerates tuples
// whose k-th atom lies in cell c(q+v(k)), pruning chains whose
// consecutive interatomic distances exceed the cutoff (the filtering
// from the bounding force set S(n) down to Γ*(n)). Periodic wrapping
// is handled by resolving each offset cell to its wrapped image plus a
// real-space image shift, so all distances are plain Euclidean
// distances of the selected images — no minimum-image search inside
// the hot loop.
//
// The walk shares work between paths. Per anchor cell, each distinct
// offset of the pattern is resolved once (27 for SC(3), whose 378
// paths name 1,134 offsets). Per distinct prefix (v0, v1) (63 for
// SC(3)), the pairs (a0, a1) that pass the duplicate-atom and distance
// checks are listed once. Each path then walks its prefix's list in
// a0-major order and extends from level 2. Paths keep their pattern
// order and their own emission order, so the visitor sees the call
// sequence of a path-by-path walk, and forces summed from it are
// bit-identical. Stats keep their path-by-path values too: a prefix's
// level-0/1 counts are credited to every non-empty path that uses it.
//
// Reflective redundancy is handled according to the pattern kind:
//
//   - A collapsed pattern (SC, HS, ES) generates each undirected tuple
//     at most once per orientation, except through self-reflective
//     (palindromic) paths, which generate both orientations at the
//     same cell; those are filtered by requiring the first atom's
//     index to be below the last atom's (DedupPalindromic).
//   - An uncollapsed pattern (FS) generates both orientations of every
//     tuple; DedupCanonical keeps the orientation with the smaller
//     first-atom index, reproducing the extra filtering work that the
//     paper charges to FS-MD.
//   - DedupNone emits everything, for measuring raw force-set sizes
//     (paper Fig. 7).
package tuple

import (
	"fmt"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
)

// MaxN is the largest tuple length the engine supports. ReaxFF-style
// force fields need up to n = 6 (§1); 8 leaves headroom.
const MaxN = 8

// Dedup selects the reflection-deduplication policy of an enumeration.
type Dedup int

const (
	// DedupAuto picks DedupPalindromic for collapsed patterns and
	// DedupCanonical otherwise, by inspecting pattern redundancy once
	// at construction.
	DedupAuto Dedup = iota
	// DedupPalindromic filters the duplicate orientation produced by
	// self-reflective paths only. Correct for collapsed patterns.
	DedupPalindromic
	// DedupCanonical keeps a tuple only when its first atom index is
	// below its last, discarding the mirror orientation wherever it
	// was produced. Correct for patterns that generate both
	// orientations of every tuple (e.g. full shell).
	DedupCanonical
	// DedupNone emits every generated tuple, duplicates included.
	DedupNone
)

// String names the policy.
func (d Dedup) String() string {
	switch d {
	case DedupAuto:
		return "auto"
	case DedupPalindromic:
		return "palindromic"
	case DedupCanonical:
		return "canonical"
	case DedupNone:
		return "none"
	}
	return "unknown"
}

// Stats accumulates the operation counts of an enumeration. The search
// cost of the paper's Eq. 12 corresponds to Candidates: the number of
// partial-chain extensions a path-by-path walk examines. The walk runs
// the level-0/1 checks of a (v0, v1) prefix once per anchor cell and
// credits their counts (Candidates, DuplicateAtom, DistancePruned) to
// every non-empty path that shares the prefix. Each counter thus keeps
// its path-by-path value, and Candidates measures the pattern's search
// cost, not the checks actually run.
type Stats struct {
	Cells            int   // cells visited
	PathApplications int64 // (cell, path) combinations processed
	Candidates       int64 // partial chains extended (search cost)
	DistancePruned   int64 // chains cut by the consecutive-distance test
	DuplicateAtom    int64 // chains cut because an atom repeated
	ReflectionCut    int64 // tuples cut by the dedup policy
	Emitted          int64 // tuples delivered to the visitor
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cells += other.Cells
	s.PathApplications += other.PathApplications
	s.Candidates += other.Candidates
	s.DistancePruned += other.DistancePruned
	s.DuplicateAtom += other.DuplicateAtom
	s.ReflectionCut += other.ReflectionCut
	s.Emitted += other.Emitted
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d paths=%d candidates=%d emitted=%d (dist-pruned=%d dup=%d refl=%d)",
		s.Cells, s.PathApplications, s.Candidates, s.Emitted,
		s.DistancePruned, s.DuplicateAtom, s.ReflectionCut)
}

// Visitor receives one n-tuple per call: the global atom indices and
// the image-resolved positions of each tuple member (consecutive
// members are geometrically adjacent; positions may lie outside the
// primary box image). Both slices are reused across calls — copy them
// to retain.
type Visitor func(atoms []int32, pos []geom.Vec3)

// Enumerator streams the force set of one pattern over a binned
// configuration. Construct with NewEnumerator; an Enumerator is
// stateful scratch and must not be shared between goroutines, but
// many Enumerators may share the same Binning.
type Enumerator struct {
	bin     *cell.Binning
	pattern *core.Pattern
	cutoff2 float64
	dedup   Dedup
	n       int
	bounded bool
	keys    []int64

	// Pattern tables, built once at construction. offsets holds the
	// pattern's distinct cell offsets; pathOff[pi*n+k] is the offset id
	// of level k of path pi; pathPrefix[pi] is the id of path pi's
	// (v0, v1) prefix, whose offset ids are prefixOff[id].
	// palindromic[pi] reports whether path pi is self-reflective.
	offsets     []geom.IVec3
	pathOff     []int32
	pathPrefix  []int32
	prefixOff   [][2]int32
	palindromic []bool

	// Scratch reused across cells and calls. cells[o] is offset o
	// resolved at the current anchor cell: a slot range plus the
	// periodic image shift. A span binning's slots are storage indices
	// themselves; a CSR binning's slot j holds atom index[j].
	cells []cellRange
	index []int32

	// pairs is the current prefix's surviving (a0, a1) chains in
	// a0-major order, and prefix its level-0/1 counts.
	pairs  []pair
	prefix Stats

	atoms [MaxN]int32
	pos   [MaxN]geom.Vec3
}

// cellRange is one offset cell resolved at an anchor cell.
type cellRange struct {
	lo, hi int32
	shift  geom.Vec3
}

// pair is a two-atom chain that survived the level-1 checks, with its
// image-resolved positions.
type pair struct {
	a0, a1 int32
	r0, r1 geom.Vec3
}

// NewEnumerator builds an enumerator for the given binning, pattern,
// and link cutoff (the r_cut-n of Eq. 6, applied between consecutive
// tuple members). It returns an error if the cutoff exceeds a cell
// side (tuple chains could then hop beyond nearest-neighbor cells) or
// if the lattice is too small for the pattern's span (offsets would
// alias and tuples would be double counted).
func NewEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup) (*Enumerator, error) {
	e, err := newEnumerator(bin, pattern, cutoff, dedup)
	if err != nil {
		return nil, err
	}
	lo, hi := pattern.BoundingBox()
	span := hi.Sub(lo).Max(geom.IVec3{})
	// A pattern spanning s cells needs ≥ s+1 cells per direction so
	// that distinct offsets of one path always address distinct
	// wrapped cells (an offset pair differing by a multiple of the
	// lattice dimension would otherwise alias, and the duplicate-atom
	// check would wrongly reject an atom interacting with its own
	// periodic image). The floor of 3 is the usual cell-method
	// requirement that at most one periodic image of any chain fits
	// within the cutoff.
	need := max(3, max(span.X, max(span.Y, span.Z))+1)
	if !bin.Lat.MinSpanOK(need) {
		return nil, fmt.Errorf("tuple: lattice %v too small for pattern span %v (need ≥ %d cells per side)",
			bin.Lat.Dims, span, need)
	}
	return e, nil
}

// NewBoundedEnumerator builds an enumerator over a non-periodic
// lattice: offset cells outside [0, Dims) are treated as empty instead
// of wrapping. This is the rank-local mode of parallel MD, where each
// rank enumerates over its owned cell block plus an imported halo
// margin; periodicity is handled by the importer, which ships halo
// atoms already shifted into the local frame. No lattice-span check is
// needed (aliasing cannot occur without wrapping).
func NewBoundedEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup) (*Enumerator, error) {
	e, err := newEnumerator(bin, pattern, cutoff, dedup)
	if err != nil {
		return nil, err
	}
	e.bounded = true
	return e, nil
}

// newEnumerator is the part of construction both modes share: the
// tuple-length and reach checks, dedup resolution and the pattern
// tables. A pattern with n < 2 has no (v0, v1) prefix and no link for
// the cutoff to bound, so it is rejected.
func newEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup) (*Enumerator, error) {
	n := pattern.N()
	if n < 2 || n > MaxN {
		return nil, fmt.Errorf("tuple: n=%d outside [2, MaxN=%d]", n, MaxN)
	}
	lat := bin.Lat
	radius := float64(pattern.StepRadius())
	if cutoff > radius*lat.Side.X || cutoff > radius*lat.Side.Y || cutoff > radius*lat.Side.Z {
		return nil, fmt.Errorf("tuple: cutoff %g exceeds pattern reach (step radius %g × cell side %v)",
			cutoff, radius, lat.Side)
	}
	if dedup == DedupAuto {
		if pattern.RedundancyCount() == 0 {
			dedup = DedupPalindromic
		} else {
			dedup = DedupCanonical
		}
	}
	paths := pattern.Paths()
	e := &Enumerator{
		bin:         bin,
		pattern:     pattern,
		cutoff2:     cutoff * cutoff,
		dedup:       dedup,
		n:           n,
		pathOff:     make([]int32, len(paths)*n),
		pathPrefix:  make([]int32, len(paths)),
		palindromic: make([]bool, len(paths)),
	}
	offsetID := make(map[geom.IVec3]int32)
	prefixID := make(map[[2]int32]int32)
	for pi, p := range paths {
		for k, v := range p {
			o, ok := offsetID[v]
			if !ok {
				o = int32(len(e.offsets))
				offsetID[v] = o
				e.offsets = append(e.offsets, v)
			}
			e.pathOff[pi*n+k] = o
		}
		key := [2]int32{e.pathOff[pi*n], e.pathOff[pi*n+1]}
		id, ok := prefixID[key]
		if !ok {
			id = int32(len(e.prefixOff))
			prefixID[key] = id
			e.prefixOff = append(e.prefixOff, key)
		}
		e.pathPrefix[pi] = id
		e.palindromic[pi] = p.IsSelfReflective()
	}
	e.cells = make([]cellRange, len(e.offsets))
	return e, nil
}

// SetKeys installs a per-atom ordering key used by the reflection
// dedup policies in place of the raw atom index. Parallel runs pass
// global atom IDs here so that the canonical-orientation choice is
// identical on every rank regardless of local index assignment. Pass
// nil to revert to local indices.
func (e *Enumerator) SetKeys(keys []int64) { e.keys = keys }

// keyOf returns the dedup ordering key of local atom index a.
func (e *Enumerator) keyOf(a int32) int64 {
	if e.keys != nil {
		return e.keys[a]
	}
	return int64(a)
}

// N returns the tuple length.
func (e *Enumerator) N() int { return e.n }

// Pattern returns the pattern being enumerated.
func (e *Enumerator) Pattern() *core.Pattern { return e.pattern }

// Dedup returns the resolved deduplication policy.
func (e *Enumerator) Dedup() Dedup { return e.dedup }

// Visit streams every tuple anchored at any cell of the full lattice.
func (e *Enumerator) Visit(positions []geom.Vec3, fn Visitor) Stats {
	var st Stats
	e.VisitInto(positions, fn, &st)
	return st
}

// VisitInto is Visit accumulating into a caller-held Stats, so one
// counter block can gather several enumerations (e.g. every term of a
// model into one kernel accumulation slot) without intermediate
// copies.
func (e *Enumerator) VisitInto(positions []geom.Vec3, fn Visitor, st *Stats) {
	dims := e.bin.Lat.Dims
	for x := 0; x < dims.X; x++ {
		for y := 0; y < dims.Y; y++ {
			for z := 0; z < dims.Z; z++ {
				e.VisitCell(geom.IV(x, y, z), positions, fn, st)
			}
		}
	}
}

// VisitCells streams tuples anchored at the given cells only (the Ω of
// one processor in parallel runs).
func (e *Enumerator) VisitCells(cells []geom.IVec3, positions []geom.Vec3, fn Visitor) Stats {
	var st Stats
	e.VisitCellsInto(cells, positions, fn, &st)
	return st
}

// VisitCellsInto is VisitCells accumulating into a caller-held Stats.
func (e *Enumerator) VisitCellsInto(cells []geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	for _, q := range cells {
		e.VisitCell(q, positions, fn, st)
	}
}

// VisitCell streams the cell search-space S_cell(c(q), Ψ) of Eq. 10:
// all tuples of all paths anchored at cell q, accumulating counters
// into st.
//
// Each distinct offset is resolved once per call. Paths are visited
// in pattern order; a path with any empty cell is skipped. Otherwise
// its prefix's surviving (a0, a1) list is built, unless it is the list
// built last, and the path extends each entry from level 2 on. A
// sorted pattern keeps each prefix's paths contiguous, so each list is
// built once per anchor cell. Every path still emits in its own
// a0-major order, so the visitor call sequence, and the forces summed
// from it, are those of a walk that treats each path alone.
func (e *Enumerator) VisitCell(q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	st.Cells++
	st.PathApplications += int64(len(e.pathPrefix))
	e.resolve(q)
	built := int32(-1)
	for pi, id := range e.pathPrefix {
		empty := false
		for _, o := range e.pathOff[pi*e.n : (pi+1)*e.n] {
			if c := &e.cells[o]; c.lo == c.hi {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		if id != built {
			e.buildPrefix(id, positions)
			built = id
		}
		st.Candidates += e.prefix.Candidates
		st.DuplicateAtom += e.prefix.DuplicateAtom
		st.DistancePruned += e.prefix.DistancePruned
		for i := range e.pairs {
			p := &e.pairs[i]
			e.atoms[0], e.atoms[1] = p.a0, p.a1
			e.pos[0], e.pos[1] = p.r0, p.r1
			if e.n == 2 {
				e.emit(pi, fn, st)
			} else {
				e.extend(2, pi, positions, fn, st)
			}
		}
	}
}

// resolve maps every distinct offset to its cell at anchor q. In
// bounded mode, out-of-lattice cells are empty and shifts are zero
// (the importer pre-shifted halo atoms).
func (e *Enumerator) resolve(q geom.IVec3) {
	lat := e.bin.Lat
	spans := e.bin.Spans()
	e.index = nil
	if !spans {
		e.index = e.bin.Atoms
	}
	for o, v := range e.offsets {
		c := &e.cells[o]
		cq := q.Add(v)
		var i int
		if e.bounded {
			if !cq.InBox(lat.Dims) {
				*c = cellRange{}
				continue
			}
			i = lat.Linear(cq)
			c.shift = geom.Vec3{}
		} else {
			i = lat.Linear(lat.WrapCell(cq))
			c.shift = lat.ImageShift(cq)
		}
		if spans {
			c.lo, c.hi = e.bin.CellSpan(i)
		} else {
			c.lo, c.hi = e.bin.Start[i], e.bin.Start[i+1]
		}
	}
}

// buildPrefix fills e.pairs with the chains (a0, a1) of prefix id that
// pass the duplicate-atom and distance checks, in a0-major order, and
// e.prefix with the level-0/1 counts a path-by-path walk would make.
func (e *Enumerator) buildPrefix(id int32, positions []geom.Vec3) {
	c0, c1 := &e.cells[e.prefixOff[id][0]], &e.cells[e.prefixOff[id][1]]
	e.pairs = e.pairs[:0]
	var dup, pruned int64
	for j0 := c0.lo; j0 < c0.hi; j0++ {
		a0 := j0
		if e.index != nil {
			a0 = e.index[j0]
		}
		r0 := positions[a0].Add(c0.shift)
		for j1 := c1.lo; j1 < c1.hi; j1++ {
			a1 := j1
			if e.index != nil {
				a1 = e.index[j1]
			}
			if a1 == a0 {
				dup++
				continue
			}
			r1 := positions[a1].Add(c1.shift)
			if r1.Sub(r0).Norm2() >= e.cutoff2 {
				pruned++
				continue
			}
			e.pairs = append(e.pairs, pair{a0: a0, a1: a1, r0: r0, r1: r1})
		}
	}
	n0, n1 := int64(c0.hi-c0.lo), int64(c1.hi-c1.lo)
	e.prefix = Stats{Candidates: n0 + n0*n1, DuplicateAtom: dup, DistancePruned: pruned}
}

// extend grows the chain at level k ≥ 2 of path pi by every atom of
// that level's cell, pruning on duplicate atoms and on the
// consecutive-distance cutoff, and emits completed chains.
func (e *Enumerator) extend(k, pi int, positions []geom.Vec3, fn Visitor, st *Stats) {
	c := &e.cells[e.pathOff[pi*e.n+k]]
	prev := e.pos[k-1]
	st.Candidates += int64(c.hi - c.lo)
	for j := c.lo; j < c.hi; j++ {
		ai := j
		if e.index != nil {
			ai = e.index[j]
		}
		dup := false
		for m := 0; m < k; m++ {
			if e.atoms[m] == ai {
				dup = true
				break
			}
		}
		if dup {
			st.DuplicateAtom++
			continue
		}
		r := positions[ai].Add(c.shift)
		if r.Sub(prev).Norm2() >= e.cutoff2 {
			st.DistancePruned++
			continue
		}
		e.atoms[k] = ai
		e.pos[k] = r
		if k+1 < e.n {
			e.extend(k+1, pi, positions, fn, st)
			continue
		}
		e.emit(pi, fn, st)
	}
}

// emit applies the reflection policy to the completed chain of path pi
// and delivers it to the visitor.
func (e *Enumerator) emit(pi int, fn Visitor, st *Stats) {
	switch e.dedup {
	case DedupPalindromic:
		if e.palindromic[pi] && e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
			st.ReflectionCut++
			return
		}
	case DedupCanonical:
		if e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
			st.ReflectionCut++
			return
		}
	}
	st.Emitted++
	fn(e.atoms[:e.n], e.pos[:e.n])
}

// Count runs the enumeration without a visitor and returns the stats.
// It reports the force-set size |S(n)| (Emitted) and the search cost
// (Candidates) of the paper's Fig. 7 and §5.1.
func (e *Enumerator) Count(positions []geom.Vec3) Stats {
	return e.Visit(positions, func([]int32, []geom.Vec3) {})
}
