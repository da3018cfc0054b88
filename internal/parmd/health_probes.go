package parmd

import (
	"fmt"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/tuple"
)

// mirrorCheck runs the halo-mirror probe for one exchange phase on a
// health-sampled step: each rank sends the checksum of the slab it just
// exported to the rank that imported it (on the health tag parallel to
// the phase's halo tag), and compares the checksum of what it imported
// against what its own upstream peer claims to have sent. Per-link
// FIFO ordering guarantees the checksum message follows the halo
// payload it audits, so the extra exchange can never be confused with
// simulation traffic.
func (r *rankState) mirrorCheck(ph *HaloPhase, sentSum, recvSum uint64) error {
	buf := r.p.AcquireBuffer()
	buf.Int64(int64(sentSum))
	tag := tagHealth + (ph.Tag - tagHalo)
	recv := r.p.SendRecvBuffer(ph.SendPeer, tag, buf, ph.RecvPeer, tag)
	var rd comm.Reader
	rd.Reset(recv.Bytes())
	remoteSent := uint64(rd.Int64())
	err := rd.Err()
	r.p.ReleaseBuffer(recv)
	if err != nil {
		return fmt.Errorf("decoding halo-mirror checksum from rank %d: %w", ph.RecvPeer, err)
	}
	r.monitor.ObserveHaloMirror(r.curStep, r.p.Rank(), recvSum, remoteSent)
	return nil
}

// runHealthProbes executes the end-of-step invariant probes on a
// sampled step: global energy drift, total linear momentum, and atom
// count (observed on rank 0, which holds the reduced values), plus the
// SC-vs-FS tuple-count parity re-enumeration when due. It finishes
// with the collective abort check — an all-reduce of the monitor's
// armed flag — so a failing probe aborts every rank together at a
// synchronization point instead of deadlocking peers blocked in the
// exchange protocol.
func (r *rankState) runHealthProbes(step int, pe float64, masses []float64, totalAtoms int64) error {
	mon := r.monitor
	p := r.p
	sp := r.rec.StartSpan(phaseHealth)
	defer sp.End()

	ke := 0.0
	var px, py, pz, pScale float64
	for i := 0; i < r.nOwned; i++ {
		m := masses[r.species[i]]
		v := r.vel[i]
		ke += 0.5 * m * v.Norm2()
		px += m * v.X
		py += m * v.Y
		pz += m * v.Z
		pScale += m * v.Norm()
	}
	ke /= md.ForceToAccel

	gpe := p.AllReduceSum(pe)
	gke := p.AllReduceSum(ke)
	gpx := p.AllReduceSum(px)
	gpy := p.AllReduceSum(py)
	gpz := p.AllReduceSum(pz)
	gScale := p.AllReduceSum(pScale)
	gn := p.AllReduceSumInt64(int64(r.nOwned))
	if p.Rank() == 0 {
		mon.ObserveEnergy(step, gpe, gke)
		mon.ObserveMomentum(step, gpx, gpy, gpz, gScale)
		mon.ObserveAtomCount(step, gn, totalAtoms)
	}

	if mon.ParityDue(step) {
		r.probeTupleParity(step)
	}

	armed := int64(0)
	if mon.AbortPending() {
		armed = 1
	}
	if p.AllReduceSumInt64(armed) > 0 {
		return mon.AbortError()
	}
	return nil
}

// probeTupleParity gathers the wrapped global configuration on rank 0
// and re-enumerates every potential term's tuple set with both search
// patterns — shift-collapse and deduplicated full-shell — over the
// global periodic lattice. Equal counts are the invariant the SC
// scheme's correctness rests on (Theorem 1: the collapsed path set
// covers exactly the unique n-tuples); any disagreement is a Fail.
// This is the expensive probe (a full serial enumeration), which is
// why it has its own cadence.
func (r *rankState) probeTupleParity(step int) {
	buf := r.p.AcquireBuffer()
	for i := 0; i < r.nOwned; i++ {
		g := r.dec.Lat.Box.Wrap(r.gpos[i])
		buf.Float64(g.X)
		buf.Float64(g.Y)
		buf.Float64(g.Z)
	}
	parts := r.p.GatherTo0(buf.Clone())
	r.p.ReleaseBuffer(buf)
	if r.p.Rank() != 0 || r.parityOff {
		return
	}

	r.parityPos = r.parityPos[:0]
	var rd comm.Reader
	for _, part := range parts {
		rd.Reset(part)
		for rd.Remaining() > 0 {
			r.parityPos = append(r.parityPos, geom.V(rd.Float64(), rd.Float64(), rd.Float64()))
		}
	}
	pos := r.parityPos

	if r.parityBin == nil {
		r.parityBin = cell.NewBinning(r.dec.Lat, pos)
	} else {
		r.parityBin.Rebin(pos)
	}
	if r.parityEnums == nil && !r.buildParityEnums(step) {
		return
	}

	var scCount, fsCount int64
	for _, pair := range r.parityEnums {
		scCount += pair[0].Count(pos).Emitted
		fsCount += pair[1].Count(pos).Emitted
	}
	r.monitor.ObserveTupleParity(step, scCount, fsCount)
}

// prewarmParity builds the parity probe's cached state — the gathered-
// position buffer, the global binning, and the enumerator pairs —
// before the step loop, so a sampled step performs only the gather,
// rebin, and two counting sweeps. Rank 0 only; a no-op when already
// warm or latched off.
func (r *rankState) prewarmParity(totalAtoms int) {
	if r.p.Rank() != 0 || r.parityOff || r.parityEnums != nil {
		return
	}
	if cap(r.parityPos) < totalAtoms {
		r.parityPos = make([]geom.Vec3, 0, totalAtoms)
	}
	if r.parityBin == nil {
		r.parityBin = cell.NewBinning(r.dec.Lat, nil)
	}
	r.buildParityEnums(-1)
}

// buildParityEnums constructs the cached SC/FS enumerator pair for
// every term over the parity binning. A constructor error — typically a
// global lattice too small for the full-shell pattern's span (FS(n)
// needs ≥ 2(n−1)+1 cells per axis) — is a configuration limit, not a
// parity violation: it is logged once and the probe is disabled for the
// rest of the run.
func (r *rankState) buildParityEnums(step int) bool {
	enums := make([][2]*tuple.Enumerator, 0, len(r.model.Terms))
	for _, term := range r.model.Terms {
		scPat, err := sharedPattern(md.FamilySC, term.N())
		if err == nil {
			var fsPat *core.Pattern
			fsPat, err = sharedPattern(md.FamilyFS, term.N())
			if err == nil {
				var scEn, fsEn *tuple.Enumerator
				scEn, err = tuple.NewEnumerator(r.parityBin, scPat, term.Cutoff(), tuple.DedupAuto)
				if err == nil {
					fsEn, err = tuple.NewEnumerator(r.parityBin, fsPat, term.Cutoff(), tuple.DedupAuto)
					if err == nil {
						enums = append(enums, [2]*tuple.Enumerator{scEn, fsEn})
					}
				}
			}
		}
		if err != nil {
			r.monitor.Logger().Warn("tuple parity probe disabled",
				"step", step, "n", term.N(), "err", err.Error())
			r.parityOff = true
			return false
		}
	}
	r.parityEnums = enums
	return true
}
