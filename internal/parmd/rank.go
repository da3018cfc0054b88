package parmd

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// computeShards is the fixed number of accumulation shards each rank's
// force evaluation is split into. The shard count — not the worker
// count — fixes both the work partition and the reduction order, so a
// rank's forces are bit-identical for every Options.Workers setting
// (and workers beyond computeShards would sit idle, so the worker
// count is capped here).
const computeShards = 16

// Message tags. Halo and force tags are offset per (axis, direction)
// so a protocol slip is caught by the tag check in comm.Recv.
// tagHealth carries the halo-mirror checksum exchange of the health
// probes, offset identically to the halo tag it audits.
// tagBalance carries the balance protocol: per-rank force-work times
// gathered to rank 0 (tagBalance) and the repartition decision
// broadcast back (tagBalance + 1).
const (
	tagMigrate = 100
	tagHalo    = 200
	tagForce   = 300
	tagHealth  = 400
	tagBalance = 500
)

// RankStats accumulates one rank's per-run operation counts — the
// inputs of the performance model (package perfmodel).
type RankStats struct {
	Steps            int
	OwnedAtoms       int   // at end of run
	SearchCandidates int64 // Eq. 12 search cost, summed over steps
	TuplesEvaluated  int64
	PairListEntries  int64 // Hybrid only
	AtomsImported    int64 // halo atoms received, summed over steps
	AtomsMigrated    int64 // atoms received in migration
	HaloMessages     int64 // halo + write-back messages received
	// ForceNs is the cumulative wall time of this rank's force work
	// (interior + boundary evaluation stages, excluding halo waits) —
	// the per-rank load measure the adaptive balancer equalizes and
	// Result.ForceImbalance summarizes.
	ForceNs int64
	// Virial is this rank's share of W = Σ f·r (eV), summed over force
	// evaluations; summing it over ranks gives the global virial of
	// the serial engines' ComputeStats (per-tuple virials are
	// translation invariant, so the rank-local frames do not matter).
	Virial float64
}

// Add accumulates other into s.
func (s *RankStats) Add(o RankStats) {
	s.Steps += o.Steps
	s.SearchCandidates += o.SearchCandidates
	s.TuplesEvaluated += o.TuplesEvaluated
	s.PairListEntries += o.PairListEntries
	s.AtomsImported += o.AtomsImported
	s.AtomsMigrated += o.AtomsMigrated
	s.HaloMessages += o.HaloMessages
	s.ForceNs += o.ForceNs
	s.Virial += o.Virial
}

// rankState is the complete state of one rank of a parallel run.
type rankState struct {
	p      *comm.Proc
	dec    *Decomp
	scheme Scheme
	model  *potential.Model

	coord    geom.IVec3
	lo, hi   geom.IVec3 // owned global cell range [lo, hi)
	mLo, mHi int        // halo margins in cells (per scheme)
	base     geom.IVec3 // global cell coords of the extended-lattice origin
	extLat   cell.Lattice

	// sub is K, the sub-cells per decomposition cell along each axis
	// (Scheme.subdivision). Atom cells are kept in sub-cell ("fine")
	// units: the owner assigns each atom's cell once on fineGlobal, the
	// global lattice subdivided K-fold, and halo records ship it as an
	// integer. The decomposition cell is its floor division by K, never
	// a second float computation, so every rank agrees on both.
	// fineLat is extLat subdivided K-fold.
	sub        int
	fineGlobal cell.Lattice
	fineLat    cell.Lattice

	// Atom storage: owned atoms in [0, nOwned), halo copies after.
	nOwned  int
	ids     []int64
	gpos    []geom.Vec3  // wrapped global positions (owned atoms only are authoritative)
	gcell   []geom.IVec3 // owner-assigned global fine cells (owned atoms)
	ecell   []geom.IVec3 // extended-lattice fine cell of every atom (owned + halo)
	lpos    []geom.Vec3  // local-frame positions (contiguous across the seam)
	vel     []geom.Vec3
	force   []geom.Vec3
	species []int32
	lcell   []int32 // linear extended decomposition cells, parallel to ecell
	lfine   []int32 // linear extended fine cells, parallel to ecell

	// grids are the lattices the cell search runs on. grids[0] is
	// extLat, span-binned over the canonical storage; Hybrid-MD searches
	// only it. grids[1] is fineLat, binned CSR keyed by global ID (the
	// storage is sorted by decomposition cell, not by sub-cell); it is
	// built only when some term searches it. termGrid[t] is the grid of
	// SC/FS term t: the finer one whose cells still cover its cutoff.
	grids    [2]searchGrid
	termGrid []int
	// overlap selects the split-phase exchange (the default): post the
	// halo sends/receives, evaluate interior cells, complete the
	// receives, evaluate boundary cells. False runs the synchronous
	// import with the identical two-stage dispatch, so forces are
	// bit-identical between the modes.
	overlap bool
	// enums holds one enumerator set per worker goroutine (enumerators
	// are scratch and must not be shared between goroutines),
	// enums[w][term].
	enums    [][]*tuple.Enumerator
	pairEnum *tuple.Enumerator // Hybrid: FS(2) raw pair search

	// workers is the intra-rank force-evaluation parallelism (the
	// thread half of the paper's hybrid rank×thread execution); acc is
	// the sharded accumulator all force kernels write through.
	workers int
	acc     *kernel.Sharded

	// Canonical owned-storage sort state: the owned segment is kept in
	// (extended-lattice cell, global ID) order so the binning can use
	// contiguous storage spans. All scratch is reused; the common
	// solid-state step is an O(n) already-ordered check.
	sorter  cell.Sorter
	sortV3  []geom.Vec3
	sortIV  []geom.IVec3
	sortI64 []int64
	sortI32 []int32

	// Per-slot, per-term visitors and the hoisted shard closure of the
	// SC/FS cell dispatch — created once, so the step loop builds no
	// closures (cellVisitors[slot][term]).
	cellVisitors [][]tuple.Visitor
	cellFn       func(w, s int)
	curTerm      int
	curCells     []geom.IVec3

	// Hybrid scheme only: the model's pair/triplet terms plus the
	// hoisted directed-list and pruning scratch, reused across steps.
	pairTerm   potential.Term
	tripTerm   potential.Term
	hybCounts  []int32
	hybFill    []int32
	hybRaw     []rawPair
	hybEntries []hybridEntry
	tripShort  [][]int32 // per-worker pruning scratch
	hybEmit    tuple.Visitor
	hybPairV   []func(i, j int32, disp geom.Vec3, dist float64) // per slot
	hybTripV   []func(atoms [3]int32, pos [3]geom.Vec3)         // per slot
	hybPairFn  func(w, s int)
	hybTripFn  func(w, s int)

	// idOrder lists the owned storage slots in ascending global-ID
	// order — the Hybrid evaluation walks it so the shard partition and
	// accumulation order stay bit-identical to ID-ordered storage. It
	// is rebuilt lazily after migration or a re-sort.
	idOrder      []int32
	idOrderStale bool
	idCmp        func(a, b int32) int // hoisted comparator: no closure alloc per rebuild

	// Tuple-parity probe state, rank 0 only, built lazily at the first
	// sampled step and reused for the rest of the run: the gathered
	// global configuration, its binning over the global lattice, and the
	// SC/FS enumerator pair per term. parityOff latches a constructor
	// failure (a lattice too small for the full-shell span) so the
	// configuration limit is logged once, not at every sample.
	parityPos   []geom.Vec3
	parityBin   *cell.Binning
	parityEnums [][2]*tuple.Enumerator
	parityOff   bool

	// plan is the compiled communication schedule (peers, tags, slab
	// bounds, frame shifts); phaseState is its per-step scratch, one
	// entry per halo phase, reused across steps.
	plan       *ExchangePlan
	phaseState []haloPhaseState

	// bal is the adaptive-repartitioning state (nil when no Balancer is
	// configured); hopClamp relaxes the one-hop migration invariant
	// during the multi-round slab handoff a repartition runs — a moved
	// boundary may strand an atom several blocks from its new owner, and
	// the clamped rounds walk it over one hop at a time.
	bal      *balanceState
	hopClamp bool

	// rec records this rank's phase spans; nil (the default) keeps
	// every span site a single-branch no-op.
	rec *obs.RankRecorder

	// monitor receives this rank's invariant-probe observations (nil
	// disables them); healthStep marks the steps the halo-mirror probe
	// samples — the exchange path checks this one bool, so disabled
	// probing costs a single branch and the steady-state zero-allocation
	// guarantee of the exchange is untouched.
	monitor    *health.Monitor
	healthStep bool
	curStep    int

	stats RankStats
}

// newRankState builds the geometry, enumerators, and kernel
// accumulator of a rank. workers ≤ 1 evaluates forces serially;
// overlap selects the split-phase halo exchange.
func newRankState(p *comm.Proc, dec *Decomp, model *potential.Model, scheme Scheme, workers int, overlap bool) (*rankState, error) {
	r := &rankState{p: p, scheme: scheme, model: model, overlap: overlap, curStep: -1}
	if workers < 1 {
		workers = 1
	}
	r.workers = min(workers, computeShards)
	r.acc = kernel.NewSharded(computeShards)

	side := minSide(dec.Lat.Side)
	mLo, mHi, err := scheme.margins(model, side)
	if err != nil {
		return nil, err
	}
	r.mLo, r.mHi = mLo, mHi
	r.sub = scheme.subdivision(model, side)
	r.fineGlobal, err = cell.NewLatticeDims(dec.Lat.Box, dec.Lat.Dims.Scale(r.sub))
	if err != nil {
		return nil, err
	}
	if scheme == SchemeHybrid {
		// One raw (both orientations) full-shell pair search; pair and
		// triplet terms are both served from the resulting list.
		for _, term := range model.Terms {
			switch term.N() {
			case 2:
				r.pairTerm = term
			case 3:
				r.tripTerm = term
			default:
				return nil, fmt.Errorf("parmd: Hybrid-MD cannot handle n=%d terms", term.N())
			}
		}
		if r.pairTerm == nil {
			return nil, fmt.Errorf("parmd: Hybrid-MD needs a pair term")
		}
	}
	if err := r.initGeometry(dec); err != nil {
		return nil, err
	}
	if err := r.buildEnumerators(); err != nil {
		return nil, err
	}

	switch scheme {
	case SchemeSC, SchemeFS:
		// Per-slot, per-term visitors plus one hoisted shard closure,
		// created here so the step loop allocates none. The visitors read
		// species (and the accumulator slot's force buffer) through
		// pointers, so they survive re-sorts and array growth; the shard
		// closure reads the enumerator set through r.enums, so it
		// survives the enumerator rebuild a repartition triggers.
		for s := 0; s < r.acc.Slots(); s++ {
			slot := r.acc.Slot(s)
			var vs []tuple.Visitor
			for _, term := range model.Terms {
				k := kernel.TermKernel{Term: term, Species: &r.species}
				vs = append(vs, k.Visitor(slot))
			}
			r.cellVisitors = append(r.cellVisitors, vs)
		}
		r.cellFn = func(w, s int) {
			cells := r.curCells
			lo, hi := kernel.Chunk(len(cells), r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			en := r.enums[w][r.curTerm]
			en.SetKeys(r.ids)
			slot := r.acc.Slot(s)
			en.VisitCellsInto(cells[lo:hi], r.lpos, r.cellVisitors[s][r.curTerm], &slot.Enum)
		}
	case SchemeHybrid:
		r.tripShort = make([][]int32, r.workers)
		for w := range r.tripShort {
			r.tripShort[w] = make([]int32, 0, 64)
		}
		// Hoisted search emission plus per-slot evaluation visitors and
		// shard closures — the Hybrid analogue of the SC/FS visitor cache.
		r.hybEmit = func(atoms []int32, pos []geom.Vec3) {
			r.hybRaw = append(r.hybRaw, rawPair{atoms[0], atoms[1], pos[1].Sub(pos[0])})
			r.hybCounts[atoms[0]+1]++
		}
		for s := 0; s < r.acc.Slots(); s++ {
			slot := r.acc.Slot(s)
			pairK := kernel.TermKernel{Term: r.pairTerm, Species: &r.species}
			r.hybPairV = append(r.hybPairV, pairK.PairVisitor(slot, &r.lpos))
			if r.tripTerm != nil {
				tripK := kernel.TermKernel{Term: r.tripTerm, Species: &r.species}
				r.hybTripV = append(r.hybTripV, tripK.TripletVisitor(slot))
			}
		}
		// Both evaluation loops walk owned atoms in global-ID order via
		// idOrder: the shard partition chunks ID ranks, and each shard
		// visits its atoms' list entries in ID-ascending order — exactly
		// the stream ID-ordered storage produced, so forces stay
		// bit-identical under the canonical cell sort.
		r.hybPairFn = func(w, s int) {
			lo, hi := kernel.Chunk(r.nOwned, r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			counts := r.hybCounts
			entries := r.hybEntries
			pv := r.hybPairV[s]
			for t := lo; t < hi; t++ {
				i := r.idOrder[t]
				idI := r.ids[i]
				for k := counts[i]; k < counts[i+1]; k++ {
					e := entries[k]
					if idI >= r.ids[e.j] {
						continue
					}
					pv(i, e.j, e.disp, e.dist)
				}
			}
		}
		r.hybTripFn = func(w, s int) {
			lo, hi := kernel.Chunk(r.nOwned, r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			slot := r.acc.Slot(s)
			counts := r.hybCounts
			entries := r.hybEntries
			tv := r.hybTripV[s]
			rc3 := r.tripTerm.Cutoff()
			short := r.tripShort[w][:0]
			for t := lo; t < hi; t++ {
				j := r.idOrder[t]
				short = short[:0]
				for k := counts[j]; k < counts[j+1]; k++ {
					slot.Enum.Candidates++
					if entries[k].dist < rc3 {
						short = append(short, k)
					}
				}
				for a := 0; a < len(short); a++ {
					for b := a + 1; b < len(short); b++ {
						slot.Enum.Candidates++
						ea, eb := entries[short[a]], entries[short[b]]
						tv([3]int32{ea.j, j, eb.j}, [3]geom.Vec3{
							r.lpos[j].Add(ea.disp),
							r.lpos[j],
							r.lpos[j].Add(eb.disp),
						})
					}
				}
			}
			r.tripShort[w] = short
		}
	}
	r.idOrderStale = true
	r.idCmp = func(a, b int32) int { return cmp.Compare(r.ids[a], r.ids[b]) }
	return r, nil
}

// initGeometry derives every decomposition-dependent piece of rank
// state from dec: the owned block, the extended lattice and its
// subdivision, each search grid's binning and anchor cells, the
// compiled exchange plan with its per-phase scratch, and each term's
// grid. It is called once at construction and again by repartition
// when the slab boundaries move — slices are reset, not reallocated,
// where capacities allow.
func (r *rankState) initGeometry(dec *Decomp) error {
	r.dec = dec
	r.coord = dec.Cart.Coord(r.p.Rank())
	r.lo = dec.BlockLo(r.coord)
	r.hi = dec.BlockHi(r.coord)
	mLo, mHi := r.mLo, r.mHi
	t := max(mLo, mHi)
	if dec.MinBlockDim() < t {
		return fmt.Errorf("parmd: block dimension %d below halo thickness %d; use fewer ranks",
			dec.MinBlockDim(), t)
	}
	r.base = r.lo.Sub(geom.IV(mLo, mLo, mLo))
	r.plan = compileExchangePlan(dec, r.p.Rank(), mLo, mHi)
	if len(r.phaseState) != len(r.plan.Halo) {
		r.phaseState = make([]haloPhaseState, len(r.plan.Halo))
	}
	ext := r.hi.Sub(r.lo).Add(geom.IV(mLo+mHi, mLo+mHi, mLo+mHi))
	extBox := geom.NewBox(
		float64(ext.X)*dec.Lat.Side.X,
		float64(ext.Y)*dec.Lat.Side.Y,
		float64(ext.Z)*dec.Lat.Side.Z,
	)
	var err error
	if r.extLat, err = cell.NewLatticeDims(extBox, ext); err != nil {
		return err
	}
	if r.fineLat, err = cell.NewLatticeDims(extBox, ext.Scale(r.sub)); err != nil {
		return err
	}

	// A term searches the sub-cells when they cover its cutoff — the
	// bound the enumerator checks against the same lattice.
	r.termGrid = r.termGrid[:0]
	fine := false
	for _, term := range r.model.Terms {
		g := 0
		if s := r.fineLat.Side; r.sub > 1 &&
			term.Cutoff() <= s.X && term.Cutoff() <= s.Y && term.Cutoff() <= s.Z {
			g, fine = 1, true
		}
		r.termGrid = append(r.termGrid, g)
	}

	coarse := &r.grids[0]
	coarse.bin = cell.NewBinning(r.extLat, nil)
	coarse.interior = coarse.interior[:0]
	coarse.boundary = coarse.boundary[:0]
	block := r.hi.Sub(r.lo)
	for x := 0; x < block.X; x++ {
		for y := 0; y < block.Y; y++ {
			for z := 0; z < block.Z; z++ {
				c := geom.IV(x+mLo, y+mLo, z+mLo)
				if c.X >= r.plan.InteriorLo.X && c.X < r.plan.InteriorHi.X &&
					c.Y >= r.plan.InteriorLo.Y && c.Y < r.plan.InteriorHi.Y &&
					c.Z >= r.plan.InteriorLo.Z && c.Z < r.plan.InteriorHi.Z {
					coarse.interior = append(coarse.interior, c)
				} else {
					coarse.boundary = append(coarse.boundary, c)
				}
			}
		}
	}

	// The sub-cells of an interior cell are interior too: a tuple's
	// physical reach in cells of either lattice rounds up to the same
	// halo margin. Each cell expands into its K³ sub-cells in place
	// (coarse-major order), so both stages keep a fixed order.
	f := &r.grids[1]
	f.bin = nil
	f.interior = subdivide(f.interior[:0], coarse.interior, r.sub)
	f.boundary = subdivide(f.boundary[:0], coarse.boundary, r.sub)
	if fine {
		f.bin = cell.NewBinning(r.fineLat, nil)
	}
	return nil
}

// searchGrid is one lattice the cell search runs on: its binning and
// the owned anchor cells of the two evaluation stages. Interior cells
// anchor only tuples over owned atoms, so the overlapped path
// evaluates them while halo data is still in flight; boundary cells
// wait for the imports. Both lists keep the owned cells' lattice
// order, so the two-stage dispatch chunks deterministically.
type searchGrid struct {
	bin                *cell.Binning
	interior, boundary []geom.IVec3
}

// subdivide appends the k³ sub-cells of every cell, cell by cell, in
// z-fastest order within each cell.
func subdivide(dst, cells []geom.IVec3, k int) []geom.IVec3 {
	for _, c := range cells {
		o := c.Scale(k)
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				for z := 0; z < k; z++ {
					dst = append(dst, o.Add(geom.IV(x, y, z)))
				}
			}
		}
	}
	return dst
}

// buildEnumerators (re)builds the tuple enumerators, which bind the
// current binnings: the per-worker SC/FS sets, each term on its own
// grid, or the Hybrid raw pair search. The evaluation closures read
// them through r.enums/r.pairEnum at call time, so a rebuild after
// repartition needs no closure work.
func (r *rankState) buildEnumerators() error {
	switch r.scheme {
	case SchemeSC, SchemeFS:
		fam := md.FamilySC
		if r.scheme == SchemeFS {
			fam = md.FamilyFS
		}
		if r.enums == nil {
			r.enums = make([][]*tuple.Enumerator, r.workers)
		}
		for w := 0; w < r.workers; w++ {
			set := r.enums[w][:0]
			for ti, term := range r.model.Terms {
				pattern, err := sharedPattern(fam, term.N())
				if err != nil {
					return fmt.Errorf("parmd: %w", err)
				}
				en, err := tuple.NewBoundedEnumerator(r.grids[r.termGrid[ti]].bin, pattern, term.Cutoff(), tuple.DedupAuto)
				if err != nil {
					return fmt.Errorf("parmd: term n=%d: %w", term.N(), err)
				}
				set = append(set, en)
			}
			r.enums[w] = set
		}
	case SchemeHybrid:
		pattern, err := sharedPattern(md.FamilyFS, 2)
		if err != nil {
			return fmt.Errorf("parmd: %w", err)
		}
		en, err := tuple.NewBoundedEnumerator(r.grids[0].bin, pattern, r.pairTerm.Cutoff(), tuple.DedupNone)
		if err != nil {
			return err
		}
		r.pairEnum = en
	}
	return nil
}

// patterns holds every pattern built so far, by family and tuple
// length. Generating SC(3) costs milliseconds, and a pattern is
// immutable once built (enumerators only read it), so every rank,
// worker, repartition and parity probe of a process shares one copy.
var patterns struct {
	sync.Mutex
	m map[patternKey]*core.Pattern
}

type patternKey struct {
	fam md.Family
	n   int
}

// sharedPattern returns family fam's pattern for tuple length n,
// building it on first use. Callers must not modify it.
func sharedPattern(fam md.Family, n int) (*core.Pattern, error) {
	patterns.Lock()
	defer patterns.Unlock()
	k := patternKey{fam, n}
	if p, ok := patterns.m[k]; ok {
		return p, nil
	}
	p, err := fam.Pattern(n)
	if err != nil {
		return nil, err
	}
	if patterns.m == nil {
		patterns.m = make(map[patternKey]*core.Pattern)
	}
	patterns.m[k] = p
	return p, nil
}

func minSide(v geom.Vec3) float64 {
	m := v.X
	if v.Y < m {
		m = v.Y
	}
	if v.Z < m {
		m = v.Z
	}
	return m
}

// adopt takes ownership of the atoms of a global configuration that
// fall in this rank's block. IDs are the configuration indices.
func (r *rankState) adopt(cfg *workload.Config) {
	for i, g := range cfg.Pos {
		gc := r.fineGlobal.CellOf(g)
		if r.ownsCell(gc) {
			r.ids = append(r.ids, int64(i))
			r.gpos = append(r.gpos, g)
			r.gcell = append(r.gcell, gc)
			r.vel = append(r.vel, cfg.Vel[i])
			r.species = append(r.species, cfg.Species[i])
		}
	}
	r.nOwned = len(r.ids)
	r.force = make([]geom.Vec3, r.nOwned)
	r.stats.OwnedAtoms = r.nOwned
}

// ownsCell reports whether a global fine cell is in this rank's
// block.
func (r *rankState) ownsCell(fc geom.IVec3) bool {
	gc := r.coarse(fc)
	return gc.X >= r.lo.X && gc.X < r.hi.X &&
		gc.Y >= r.lo.Y && gc.Y < r.hi.Y &&
		gc.Z >= r.lo.Z && gc.Z < r.hi.Z
}

// dropHalo truncates the atom arrays back to owned atoms only.
func (r *rankState) dropHalo() {
	r.ids = r.ids[:r.nOwned]
	r.gpos = r.gpos[:r.nOwned]
	r.gcell = r.gcell[:r.nOwned]
	r.vel = r.vel[:r.nOwned]
	r.species = r.species[:r.nOwned]
	r.force = r.force[:r.nOwned]
	r.ecell = r.ecell[:0]
	r.lpos = r.lpos[:0]
}

// deriveOwned recomputes the extended-lattice fine cell and local
// position of every owned atom from its owner-assigned global fine
// cell. Exact integer arithmetic on cells keeps rank-local binning
// consistent with the global decomposition even for atoms exactly on
// cell boundaries.
func (r *rankState) deriveOwned() {
	r.ecell = r.ecell[:0]
	r.lpos = r.lpos[:0]
	fineBase := r.base.Scale(r.sub)
	for i := 0; i < r.nOwned; i++ {
		ec := r.gcell[i].Sub(fineBase)
		r.ecell = append(r.ecell, ec)
		r.lpos = append(r.lpos, r.localPos(r.gpos[i], 0, 0, 0))
	}
}

// coarse maps a (non-negative) fine cell, global or extended, to the
// decomposition cell that contains it.
func (r *rankState) coarse(fc geom.IVec3) geom.IVec3 {
	return geom.IV(fc.X/r.sub, fc.Y/r.sub, fc.Z/r.sub)
}

// localPos maps a wrapped global position into this rank's local
// frame, with kx, ky, kz the per-axis periodic image shifts (in box
// lengths) needed for halo copies.
func (r *rankState) localPos(g geom.Vec3, kx, ky, kz int) geom.Vec3 {
	L := r.dec.Lat.Box.L
	s := r.dec.Lat.Side
	return geom.V(
		g.X+float64(kx)*L.X-float64(r.base.X)*s.X,
		g.Y+float64(ky)*L.Y-float64(r.base.Y)*s.Y,
		g.Z+float64(kz)*L.Z-float64(r.base.Z)*s.Z,
	)
}

// rebin refreshes the binnings from the current ecell assignment. The
// owned segment is in canonical (cell, ID) order and every halo phase
// appends whole per-cell runs, so the storage is cell-run contiguous —
// the layout RebinSpans requires (and verifies). Sub-cell runs are not
// contiguous, so the fine grid bins CSR with ID-ordered cell lists,
// which makes its enumeration order independent of storage order.
func (r *rankState) rebin() error {
	n := len(r.ecell)
	if cap(r.lcell) < n {
		// Headroom: the halo count fluctuates with thermal motion; an
		// exact fit would reallocate at every new high-water mark.
		r.lcell = make([]int32, n+n/8)
	}
	r.lcell = r.lcell[:n]
	for i, ec := range r.ecell {
		r.lcell[i] = int32(r.extLat.Linear(r.coarse(ec)))
	}
	if err := r.grids[0].bin.RebinSpans(r.lcell); err != nil {
		return err
	}
	if fb := r.grids[1].bin; fb != nil {
		if cap(r.lfine) < n {
			r.lfine = make([]int32, n+n/8)
		}
		r.lfine = r.lfine[:n]
		for i, ec := range r.ecell {
			r.lfine[i] = int32(r.fineLat.Linear(ec))
		}
		fb.RebinCellsKeyed(r.lfine, r.ids)
	}
	return nil
}

// canonicalizeOwned re-sorts the owned segment into (extended-lattice
// cell, global ID) order — the canonical layout that makes per-cell
// storage contiguous. Already-ordered storage (every step a solid
// takes, except right after a migration) is detected in O(n) and left
// untouched; a real sort permutes all owned arrays through reused
// scratch, so steady-state steps allocate nothing either way.
func (r *rankState) canonicalizeOwned() {
	n := r.nOwned
	if cap(r.lcell) < n {
		r.lcell = make([]int32, n+n/8)
	}
	lc := r.lcell[:n]
	for i := 0; i < n; i++ {
		lc[i] = int32(r.extLat.Linear(r.coarse(r.ecell[i])))
	}
	if cell.Ordered(lc, r.ids[:n]) {
		return
	}
	perm := r.sorter.Plan(r.extLat.NumCells(), lc, r.ids[:n])
	permuteWith(&r.sortI64, r.ids, perm)
	permuteWith(&r.sortV3, r.gpos, perm)
	permuteWith(&r.sortIV, r.gcell, perm)
	permuteWith(&r.sortV3, r.vel, perm)
	permuteWith(&r.sortI32, r.species, perm)
	permuteWith(&r.sortV3, r.force, perm)
	permuteWith(&r.sortIV, r.ecell, perm)
	permuteWith(&r.sortV3, r.lpos, perm)
	r.idOrderStale = true
}

// permuteWith applies dst[k] = dst[perm[k]] over the first len(perm)
// elements, staging through the reusable scratch so the backing array
// (which visitors and captured slice headers may alias) stays put.
func permuteWith[T any](scratch *[]T, arr []T, perm []int32) {
	n := len(perm)
	if cap(*scratch) < n {
		// Headroom: n tracks the owned count, which fluctuates under
		// migration; an exact fit would reallocate at every new
		// high-water mark.
		*scratch = make([]T, n+n/8)
	}
	s := (*scratch)[:n]
	copy(s, arr[:n])
	cell.Permute(arr[:n], s, perm)
}

// ensureIDOrder rebuilds the owned-slot-by-ID-rank walk order if a
// migration or re-sort invalidated it. Hybrid evaluation is the only
// consumer; on steady-state steps this is two comparisons.
func (r *rankState) ensureIDOrder() {
	if !r.idOrderStale && len(r.idOrder) == r.nOwned {
		return
	}
	if cap(r.idOrder) < r.nOwned {
		r.idOrder = make([]int32, r.nOwned+r.nOwned/8)
	}
	r.idOrder = r.idOrder[:r.nOwned]
	for i := range r.idOrder {
		r.idOrder[i] = int32(i)
	}
	slices.SortFunc(r.idOrder, r.idCmp)
	r.idOrderStale = false
}
