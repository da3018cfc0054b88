package parmd

import (
	"math"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
)

// rankStatField is one entry of the reflection-free field table below:
// a stable snake_case name (the key metrics and step records are
// emitted under) plus get/set accessors through float64, wide enough
// for every counter in RankStats (int64 counts stay exact to 2⁵³).
type rankStatField struct {
	Name string
	Get  func(*RankStats) float64
	Set  func(*RankStats, float64)
}

// rankStatFields enumerates every field of RankStats exactly once —
// the single source the component-wise reductions (MaxRank, MeanRank),
// the registry export, and the per-step counter records all share, so
// a new RankStats field added here shows up everywhere at once.
var rankStatFields = []rankStatField{
	{"steps",
		func(s *RankStats) float64 { return float64(s.Steps) },
		func(s *RankStats, v float64) { s.Steps = int(v) }},
	{"owned_atoms",
		func(s *RankStats) float64 { return float64(s.OwnedAtoms) },
		func(s *RankStats, v float64) { s.OwnedAtoms = int(v) }},
	{"search_candidates",
		func(s *RankStats) float64 { return float64(s.SearchCandidates) },
		func(s *RankStats, v float64) { s.SearchCandidates = int64(v) }},
	{"tuples_evaluated",
		func(s *RankStats) float64 { return float64(s.TuplesEvaluated) },
		func(s *RankStats, v float64) { s.TuplesEvaluated = int64(v) }},
	{"pair_list_entries",
		func(s *RankStats) float64 { return float64(s.PairListEntries) },
		func(s *RankStats, v float64) { s.PairListEntries = int64(v) }},
	{"atoms_imported",
		func(s *RankStats) float64 { return float64(s.AtomsImported) },
		func(s *RankStats, v float64) { s.AtomsImported = int64(v) }},
	{"atoms_migrated",
		func(s *RankStats) float64 { return float64(s.AtomsMigrated) },
		func(s *RankStats, v float64) { s.AtomsMigrated = int64(v) }},
	{"halo_messages",
		func(s *RankStats) float64 { return float64(s.HaloMessages) },
		func(s *RankStats, v float64) { s.HaloMessages = int64(v) }},
	{"force_ns",
		func(s *RankStats) float64 { return float64(s.ForceNs) },
		func(s *RankStats, v float64) { s.ForceNs = int64(v) }},
	{"virial",
		func(s *RankStats) float64 { return s.Virial },
		func(s *RankStats, v float64) { s.Virial = v }},
}

// reduceRankStats folds all ranks' stats field by field through the
// shared obs.MaxMean reduction and assembles the requested component
// (pick receives each field's (max, mean) and chooses one).
func reduceRankStats(all []RankStats, pick func(max, mean float64) float64) RankStats {
	var out RankStats
	xs := make([]float64, len(all))
	for _, f := range rankStatFields {
		for i := range all {
			xs[i] = f.Get(&all[i])
		}
		mx, mean := obs.MaxMean(xs)
		f.Set(&out, pick(mx, mean))
	}
	return out
}

// MaxRank returns the component-wise maximum over RankStats — the
// critical-path load the performance model compares against.
func (r *Result) MaxRank() RankStats {
	if len(r.RankStats) == 0 {
		return RankStats{}
	}
	return reduceRankStats(r.RankStats, func(max, _ float64) float64 { return max })
}

// MeanRank returns the component-wise mean over RankStats; together
// with MaxRank it gives the per-counter load imbalance (max/mean).
func (r *Result) MeanRank() RankStats {
	if len(r.RankStats) == 0 {
		return RankStats{}
	}
	return reduceRankStats(r.RankStats, func(_, mean float64) float64 { return mean })
}

// rankDelta is one observation's worth of a rank's counting: the
// change in its cumulative counters since the previous observation.
// The shape is fixed at setup, so computing one allocates nothing.
type rankDelta struct {
	stats RankStats            // field-wise difference (OwnedAtoms and Virial too)
	class []comm.Stats         // per tag class, in ClassNames order
	wait  time.Duration        // receive wait summed over the classes
	phase [obs.MaxPhases]int64 // recorder phase time; zero without a recorder
}

// observer derives one rank's deltas and hands each to its two
// subscribers: the metrics registry folds every observation, and the
// step log receives a record built from each per-step one. A rank
// observes once after the initial evaluation (the setup's share), once
// per step, and once after the loop (post-loop barrier traffic), so the registry's counters add up to the run's
// totals exactly while step records cover their own step only.
type observer struct {
	r     *rankState
	p     *comm.Proc
	epoch time.Time // t_ns origin, shared by every rank

	d         rankDelta
	prevStats RankStats
	prevClass []comm.Stats
	prevPhase [obs.MaxPhases]int64
	curClass  []comm.Stats

	// Registry handles, resolved once so a fold is a handful of atomic
	// adds. counters parallels rankStatFields; its nil entries do not
	// fold (virial is a run-level gauge, and steps is a run-global step
	// count that only rank 0 adds to). imb and repart are rank 0's.
	reg        *obs.Registry
	counters   []*obs.Counter
	classBytes []*obs.Counter
	classMsgs  []*obs.Counter
	classWait  []*obs.Counter
	stepHist   *obs.Histogram
	imb        *obs.Gauge
	repart     *obs.Counter
	repartSeen int
	recorder   *obs.Recorder

	// Step-record scratch: the maps are cleared and refilled with the
	// same keys each step (Go keeps map buckets across clear), and the
	// comm_<class>_bytes keys and phase names are interned once.
	log        *obs.StepWriter
	rec        obs.StepRecord
	classKeys  []string
	phaseNames [obs.MaxPhases]string
}

// newObserver builds rank p's observer over the run's registry and
// step log, or returns nil when the run has neither. Every method is a
// no-op on nil.
func newObserver(opt Options, r *rankState, p *comm.Proc, epoch time.Time) *observer {
	if opt.Metrics == nil && opt.StepLog == nil {
		return nil
	}
	o := &observer{r: r, p: p, epoch: epoch, reg: opt.Metrics, log: opt.StepLog, recorder: opt.Recorder}
	n := p.ClassCount()
	o.d.class = make([]comm.Stats, n)
	o.prevClass = make([]comm.Stats, n)
	o.curClass = make([]comm.Stats, n)
	names := p.ClassNames()
	if reg := opt.Metrics; reg != nil {
		rank0 := p.Rank() == 0
		o.counters = make([]*obs.Counter, len(rankStatFields))
		for i, f := range rankStatFields {
			if f.Name != "virial" && (f.Name != "steps" || rank0) {
				o.counters[i] = reg.Counter("parmd." + f.Name)
			}
		}
		o.classBytes = make([]*obs.Counter, n)
		o.classMsgs = make([]*obs.Counter, n)
		o.classWait = make([]*obs.Counter, n)
		for i, name := range names {
			o.classBytes[i] = reg.Counter(obs.CommClassMetric(name, "bytes"))
			o.classMsgs[i] = reg.Counter(obs.CommClassMetric(name, "messages"))
			o.classWait[i] = reg.Counter(obs.CommClassMetric(name, "wait_ns"))
		}
		o.stepHist = reg.Histogram("parmd.step_ms", obs.ExpBuckets(0.01, 2, 18))
		if rank0 {
			o.imb = reg.Gauge("parmd.imbalance")
			o.imb.Set(1) // present from the start; refined by every fold
			o.repart = reg.Counter("parmd.repartitions")
			reg.Gauge("parmd.ranks").Set(float64(p.Size()))
		}
	}
	if opt.StepLog != nil {
		o.rec.Rank = p.Rank()
		o.classKeys = make([]string, n)
		for i, name := range names {
			o.classKeys[i] = obs.CommClassKey(name, "bytes")
		}
		o.rec.Counters = make(map[string]int64, len(rankStatFields)+2+n)
		if r.rec != nil {
			o.rec.PhaseNs = make(map[string]int64, obs.MaxPhases)
		}
	}
	return o
}

// diff computes the delta since the previous observation into o.d and
// makes the current cumulative state the new baseline — the one place
// a rank's per-step counting is derived. Allocation-free.
func (o *observer) diff() {
	for _, f := range rankStatFields {
		f.Set(&o.d.stats, f.Get(&o.r.stats)-f.Get(&o.prevStats))
	}
	o.prevStats = o.r.stats
	o.p.ClassStatsInto(o.curClass)
	o.d.wait = 0
	for i, cur := range o.curClass {
		prev := o.prevClass[i]
		o.d.class[i] = comm.Stats{
			Messages: cur.Messages - prev.Messages,
			Bytes:    cur.Bytes - prev.Bytes,
			Wait:     cur.Wait - prev.Wait,
		}
		o.d.wait += o.d.class[i].Wait
	}
	o.prevClass, o.curClass = o.curClass, o.prevClass
	var phase [obs.MaxPhases]int64
	o.r.rec.CopyPhaseNs(&phase)
	for i := range phase {
		o.d.phase[i] = phase[i] - o.prevPhase[i]
	}
	o.prevPhase = phase
}

// observe takes one observation and folds it into the registry; the
// setup and post-loop observations are this call alone.
func (o *observer) observe() {
	if o == nil {
		return
	}
	o.diff()
	o.fold()
}

// step is the whole telemetry tail of one loop step started at start:
// observe, record the step's wall time, and — while the step log is
// Active — write the step record. Allocation-free when no encoding
// consumer (file or /steps subscriber) is attached.
func (o *observer) step(step int, start time.Time) {
	if o == nil {
		return
	}
	wall := time.Since(start)
	o.observe()
	if o.stepHist != nil {
		o.stepHist.Observe(wall.Seconds() * 1e3)
	}
	if o.log.Active() {
		o.writeRecord(step, wall)
	}
}

// fold adds the current delta into the registry and, on rank 0,
// refreshes the live repartition count and force-imbalance gauge (the
// balancer's last collective measure when one runs, else the
// recorder's per-rank force-phase clocks).
func (o *observer) fold() {
	if o.reg == nil {
		return
	}
	for i, f := range rankStatFields {
		if c := o.counters[i]; c != nil {
			c.Add(int64(f.Get(&o.d.stats)))
		}
	}
	for i, d := range o.d.class {
		o.classBytes[i].Add(d.Bytes)
		o.classMsgs[i].Add(d.Messages)
		o.classWait[i].Add(d.Wait.Nanoseconds())
	}
	if o.imb == nil {
		return
	}
	if bal := o.r.bal; bal != nil {
		o.repart.Add(int64(bal.repartitions - o.repartSeen))
		o.repartSeen = bal.repartitions
		if bal.lastImb > 0 {
			o.imb.Set(bal.lastImb)
		}
		return
	}
	if o.recorder != nil {
		n := o.recorder.Ranks()
		var mx, sum float64
		for i := 0; i < n; i++ {
			rr := o.recorder.Rank(i)
			ns := float64(rr.PhaseNs(phaseForceInterior) + rr.PhaseNs(phaseForceBoundary))
			sum += ns
			mx = math.Max(mx, ns)
		}
		if sum > 0 {
			o.imb.Set(mx / (sum / float64(n)))
		}
	}
}

// writeRecord writes the step record of the current delta: the
// counter deltas under the rankStatFields names, owned_atoms as the
// current absolute value, the receive wait as comm_wait_ns, each
// class's sent bytes as comm_<class>_bytes (so a step log can pin a
// traffic spike on halo vs migrate vs write-back), and the nonzero
// phase times.
func (o *observer) writeRecord(step int, wall time.Duration) {
	o.rec.Step = step
	o.rec.WallNs = wall.Nanoseconds()
	o.rec.TNs = time.Since(o.epoch).Nanoseconds()
	clear(o.rec.Counters)
	for _, f := range rankStatFields {
		o.rec.Counters[f.Name] = int64(f.Get(&o.d.stats))
	}
	o.rec.Counters["owned_atoms"] = int64(o.r.stats.OwnedAtoms)
	o.rec.Counters["comm_wait_ns"] = o.d.wait.Nanoseconds()
	for i, key := range o.classKeys {
		if b := o.d.class[i].Bytes; b != 0 {
			o.rec.Counters[key] = b
		}
	}
	if o.rec.PhaseNs != nil {
		clear(o.rec.PhaseNs)
		for i, ns := range o.d.phase {
			if ns == 0 {
				continue
			}
			if o.phaseNames[i] == "" {
				o.phaseNames[i] = obs.PhaseID(i).Name()
			}
			o.rec.PhaseNs[o.phaseNames[i]] = ns
		}
	}
	o.log.WriteStep(o.rec)
}

// OverlapFraction returns the measured overlap efficiency of the
// split-phase halo exchange: the fraction of the exchange-completion
// window covered by interior force computation,
//
//	interior / (interior + wait)
//
// over the mean per-rank force:interior and halo:wait phase times. 1.0
// means every receive had already landed when the interior stage
// finished (the import latency was fully hidden); values near 0 mean
// the rank mostly sat blocked in halo:wait — no interior cells, or
// communication far slower than compute. Zero when no recorder ran or
// no exchange happened.
func (r *Result) OverlapFraction() float64 {
	var interior, wait float64
	for _, ps := range r.Phases {
		switch ps.Phase {
		case "force:interior":
			interior = ps.MeanNs
		case "halo:wait":
			wait = ps.MeanNs
		}
	}
	if interior+wait <= 0 {
		return 0
	}
	return interior / (interior + wait)
}

// ForceImbalance returns the whole-run force-phase load imbalance: the
// max over mean of the per-rank cumulative force-work time
// (RankStats.ForceNs). 1 means perfectly balanced; it is the quantity
// the adaptive balancer drives down (Result.Imbalance is the same
// measure over the last balance-check interval only).
func (r *Result) ForceImbalance() float64 {
	if len(r.RankStats) == 0 {
		return 1
	}
	var maxNs, sumNs int64
	for i := range r.RankStats {
		ns := r.RankStats[i].ForceNs
		sumNs += ns
		if ns > maxNs {
			maxNs = ns
		}
	}
	if sumNs <= 0 {
		return 1
	}
	return float64(maxNs) / (float64(sumNs) / float64(len(r.RankStats)))
}

// publishMetrics sets the registry's run-level gauges from the
// gathered Result: the summed virial, the final imbalance, and — when
// a span recorder ran — per-phase max-rank milliseconds and imbalance,
// the overlap fraction and the critical-path fraction. The counters
// need no reconciling: every rank's observer has already folded all
// of its deltas into them.
func publishMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	var virial float64
	for _, s := range res.RankStats {
		virial += s.Virial
	}
	reg.Gauge("parmd.virial").Set(virial)
	// parmd.imbalance is always present: the balancer's last collective
	// measure when one ran, the whole-run force imbalance otherwise.
	if res.BalanceChecks > 0 {
		reg.Gauge("parmd.imbalance").Set(res.Imbalance)
	} else {
		reg.Gauge("parmd.imbalance").Set(res.ForceImbalance())
	}

	for _, ps := range res.Phases {
		reg.Gauge("phase." + ps.Phase + ".max_ms").Set(float64(ps.MaxNs) / 1e6)
		reg.Gauge("phase." + ps.Phase + ".imbalance").Set(ps.Imbalance())
	}
	if len(res.Phases) > 0 {
		reg.Gauge("parmd.overlap_fraction").Set(res.OverlapFraction())
	}
	if len(res.Phases) > 0 && res.Wall > 0 {
		frac := float64(obs.CriticalPathNs(res.Phases)) / float64(res.Wall.Nanoseconds())
		reg.Gauge("phase.critical_path_fraction").Set(math.Min(frac, 1))
	}
}
