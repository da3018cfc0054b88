package parmd

import (
	"sctuple/internal/geom"
)

// ExchangePlan is one rank's compiled communication schedule: every
// peer, tag, slab bound, and frame-shift adjustment of the staged halo
// import, force write-back, and atom migration, derived once per
// (decomposition, scheme, rank) at startup. The per-step exchange
// loops then only walk precompiled entries — no geometry is recomputed
// on the hot path, in the spirit of the precompiled message schedules
// of Beazley & Lomdahl's CM-5 multi-cell MD (see PAPERS.md).
type ExchangePlan struct {
	// Halo lists the staged import phases in execution order: per axis,
	// toward −axis first (the SC direction), then +axis (full-shell
	// only). Force write-back replays the same list in reverse.
	Halo []HaloPhase
	// Migrate holds one entry per axis; axes a single rank spans are
	// marked inactive.
	Migrate [3]MigratePhase

	// InteriorLo/InteriorHi bound the interior cells in extended-cell
	// coordinates: an owned cell c with InteriorLo ≤ c < InteriorHi
	// (component-wise) anchors only tuples whose atoms lie in owned
	// cells. The margins are the scheme's maximal per-axis tuple reach
	// (mLo below the anchor, mHi above — the same bound that sizes the
	// halo import), so a cell at least mLo cells above the lower owned
	// edge and mHi below the upper one can be evaluated before any halo
	// data arrives. The remaining owned cells are the boundary set. An
	// axis may compile to an empty interior range (InteriorHi ≤
	// InteriorLo) when the block is thinner than both margins combined;
	// the overlapped path then degenerates gracefully to all-boundary.
	InteriorLo, InteriorHi geom.IVec3
}

// HaloPhase is one compiled slab transfer of the staged halo exchange.
type HaloPhase struct {
	Axis int // 0, 1, 2
	Dir  int // slab travel direction: −1 (SC) or +1 (full-shell only)

	SendPeer int // rank this phase's slab is sent to
	RecvPeer int // rank the symmetric margin fill comes from
	Tag      int // halo import tag
	ForceTag int // matching force write-back tag

	// Slab selection in extended-cell coordinates along Axis: atoms in
	// cells c with SlabLo ≤ c < SlabHi are exported.
	SlabLo, SlabHi int

	// Frame shift into the receiver's coordinates, including the
	// periodic image correction at the global boundary.
	CellAdj int
	PosAdj  float64
}

// MigratePhase is the compiled per-axis migration exchange: both
// directions' peers and tags plus the block geometry hopDir needs.
type MigratePhase struct {
	Active   bool   // false when this rank is the axis's sole owner
	BlockIdx int    // this rank's block index along the axis
	Dim      int    // process-grid extent along the axis
	SendPeer [2]int // index 0: toward −1, 1: toward +1
	RecvPeer [2]int
	Tag      [2]int
}

// compileExchangePlan builds the rank's full communication schedule.
// mLo/mHi are the scheme's halo margins (scheme.margins).
func compileExchangePlan(dec *Decomp, rank, mLo, mHi int) *ExchangePlan {
	cart := dec.Cart
	coord := cart.Coord(rank)
	lo := dec.BlockLo(coord)
	hi := dec.BlockHi(coord)
	base := lo.Sub(geom.IV(mLo, mLo, mLo))
	block := hi.Sub(lo)

	plan := &ExchangePlan{}
	for axis := 0; axis < 3; axis++ {
		// Owned cells span [mLo, mLo+block) in extended coordinates; the
		// interior keeps the scheme's reach away from both edges.
		plan.InteriorLo.SetComp(axis, mLo+mLo)
		plan.InteriorHi.SetComp(axis, mLo+block.Comp(axis)-mHi)
		// Dir = −1: my bottom slab fills the −axis neighbor's upper
		// margin (the SC direction). Dir = +1: my top slab fills the
		// +axis neighbor's lower margin (full-shell only). The phase
		// order (all of one axis before the next, each phase's slab
		// selection covering halo atoms received earlier) is what makes
		// edge and corner data forward automatically.
		for _, d := range [2]int{-1, +1} {
			if (d < 0 && mHi == 0) || (d > 0 && mLo == 0) {
				continue
			}
			ph := HaloPhase{
				Axis:     axis,
				Dir:      d,
				SendPeer: cart.AxisNeighbor(rank, axis, d),
				RecvPeer: cart.AxisNeighbor(rank, axis, -d),
				Tag:      tagHalo + axis*2 + (d+1)/2,
				ForceTag: tagForce + axis*2 + (d+1)/2,
			}
			if d < 0 {
				// Bottom slab: the first mHi owned cells. Owned cells
				// span [mLo, mLo+block) in extended coordinates.
				ph.SlabLo, ph.SlabHi = mLo, mLo+mHi
			} else {
				// Top slab: the last mLo owned cells. Its lower bound is
				// (mLo + block) − mLo = block — the slab of thickness
				// mLo ending at the owned range's upper edge starts
				// exactly block cells above the extended origin.
				ph.SlabLo, ph.SlabHi = block.Comp(axis), mLo+block.Comp(axis)
			}
			ph.CellAdj, ph.PosAdj = hopAdjust(dec, coord, base, axis, d)
			plan.Halo = append(plan.Halo, ph)
		}

		mp := &plan.Migrate[axis]
		mp.BlockIdx = coord.Comp(axis)
		mp.Dim = cart.Dims.Comp(axis)
		if mp.Dim == 1 {
			continue // sole owner along this axis
		}
		mp.Active = true
		for di, d := range [2]int{-1, +1} {
			mp.SendPeer[di] = cart.AxisNeighbor(rank, axis, d)
			mp.RecvPeer[di] = cart.AxisNeighbor(rank, axis, -d)
			mp.Tag[di] = tagMigrate + axis*2 + di
		}
	}
	return plan
}

// hopAdjust returns the extended-cell index shift and local-position
// shift that map the frame of the rank at coord (with extended origin
// base) onto the frame of its axis-d neighbor, including the periodic
// image correction at the global boundary.
func hopAdjust(dec *Decomp, coord, base geom.IVec3, axis, d int) (cellAdj int, posAdj float64) {
	cart := dec.Cart
	nbCoordRaw := coord.Comp(axis) + d
	crossed := 0
	if nbCoordRaw < 0 || nbCoordRaw >= cart.Dims.Comp(axis) {
		crossed = -d // image shift in box lengths
	}
	nbCoord := coord
	nbCoord.SetComp(axis, nbCoordRaw)
	nb := cart.Wrap(nbCoord)
	nbMargin := dec.BlockLo(coord).Comp(axis) - base.Comp(axis) // = mLo, same on every rank
	nbBase := dec.BlockLo(nb).Comp(axis) - nbMargin

	gdims := dec.Lat.Dims.Comp(axis)
	cellAdj = base.Comp(axis) - nbBase + crossed*gdims
	posAdj = float64(crossed)*dec.Lat.Box.L.Comp(axis) +
		float64(base.Comp(axis)-nbBase)*dec.Lat.Side.Comp(axis)
	return cellAdj, posAdj
}
