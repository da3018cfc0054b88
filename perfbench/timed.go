package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

const (
	// warmSteps leading steps of every repetition are excluded from the
	// step samples: buffers and scratch grow to their steady size there.
	warmSteps = 2
	// minIters is the least number of measuring iterations a run makes,
	// however short its budget.
	minIters = 6
	// maxDrift bounds the NVE total-energy drift of the reference run,
	// as max |E(t) − E(0)| over the mean kinetic energy.
	maxDrift = 1e-2
	// maxPERelErr bounds the relative difference between the parallel
	// initial potential energy and the serial SC engine's.
	maxPERelErr = 1e-9
)

// exactCounters are the per-rank counters of one run that must repeat
// bit for bit whenever the same configuration runs the same steps,
// whatever the transport. A mismatch means the run computed something
// else, so its timing is not a sample of this workload.
type exactCounters struct {
	Tuples     [ranks]int64
	Candidates [ranks]int64
	Pairs      [ranks]int64
	HaloBytes  int64
	HaloMsgs   int64
}

func countersOf(res *parmd.Result) exactCounters {
	var c exactCounters
	for r := 0; r < ranks && r < len(res.RankStats); r++ {
		s := res.RankStats[r]
		c.Tuples[r], c.Candidates[r], c.Pairs[r] = s.TuplesEvaluated, s.SearchCandidates, s.PairListEntries
	}
	h := res.CommByClass["halo"]
	c.HaloBytes, c.HaloMsgs = h.Bytes, h.Messages
	return c
}

// reference is the untimed channel-transport run every timed
// repetition is checked against.
type reference struct {
	counters exactCounters
	forces   []geom.Vec3
	drift    float64 // max |E(t) − E(0)| / mean KE over the run
	peRelErr float64 // |PE_parallel − PE_serial| / |PE_serial| before step 1
}

// stepSink is the in-memory StepLog consumer of one repetition: every
// rank's per-step wall time and end timestamp and, in traced runs, its
// phase totals over the steady-state steps. ObserveStep runs on the
// emitting rank's goroutine and writes only that rank's rows; the rows
// are read after the run has returned.
type stepSink struct {
	wall, end [][]int64
	phase     []map[string]int64
}

func newStepSink(steps int, traced bool) *stepSink {
	s := &stepSink{wall: make([][]int64, ranks), end: make([][]int64, ranks)}
	for r := range s.wall {
		s.wall[r] = make([]int64, steps)
		s.end[r] = make([]int64, steps)
	}
	if traced {
		s.phase = make([]map[string]int64, ranks)
		for r := range s.phase {
			s.phase[r] = make(map[string]int64)
		}
	}
	return s
}

func (s *stepSink) ObserveStep(rec obs.StepRecord) {
	s.wall[rec.Rank][rec.Step] = rec.WallNs
	s.end[rec.Rank][rec.Step] = rec.TNs
	if s.phase != nil && rec.Step >= warmSteps {
		for k, v := range rec.PhaseNs {
			s.phase[rec.Rank][k] += v
		}
	}
}

// rep is one successful timed repetition.
type rep struct {
	res      *parmd.Result
	stepMs   []float64          // steady-state steps: max over ranks of the step wall
	loopS    float64            // wall time of the steady-state steps
	sinkMean float64            // mean over all steps of the max-over-ranks wall, ms
	outerS   float64            // the parmd call's wall time, timed from outside
	rssMB    float64            // peak resident memory during the run
	phaseMs  map[string]float64 // traced: per steady step, max over ranks
}

// bench runs one workload: the reference run, set-up samples and timed
// repetitions, and counts every run attempted and failed.
type bench struct {
	spec  workloadSpec
	cfg   *workload.Config
	model *potential.Model
	cart  comm.Cart
	steps int // steps per repetition
	// transport, when non-nil, supplies the channel-world transport of
	// the given timed repetition — the seam the self-test corrupts a
	// repetition through.
	transport func(rep int) comm.Transport

	ref       reference
	setup0    *parmd.Result // the first set-up run: counters before step 1
	timed     int
	attempted int
	failed    int
	problems  []string
	spans     *tracer
}

func newBench(spec workloadSpec, seed int64) *bench {
	cfg, model, cart := newSystem(seed)
	return &bench{spec: spec, cfg: cfg, model: model, cart: cart, steps: spec.RepSteps}
}

func (b *bench) options(steps int) parmd.Options {
	return parmd.Options{Scheme: b.spec.Scheme, Cart: b.cart, Dt: dtFs, Steps: steps, Workers: workers}
}

// execute runs the workload once — over the socket fabric when the
// workload names one and no transport is forced. The heap is collected
// and returned to the OS first, so one run's garbage is not collected
// in the next, and the peak-RSS counter restarts, so a peakRSSMB
// reading right after covers this run alone.
func (b *bench) execute(opt parmd.Options, chanOnly bool) (*parmd.Result, time.Duration, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, 0, fmt.Errorf("resetting the peak-RSS counter: %w", err)
	}
	b.attempted++
	defer b.spans.start("parmd.Run")()
	start := time.Now()
	var res *parmd.Result
	var err error
	if b.spec.Network != "" && !chanOnly && opt.Transport == nil {
		res, err = parmd.RunSocket(b.cfg, b.model, opt, b.spec.Network)
	} else {
		res, err = parmd.Run(b.cfg, b.model, opt)
	}
	return res, time.Since(start), err
}

func (b *bench) fail(what string, err error) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf("%s: %v", what, err))
}

// reference runs the workload once over channels with energy tracing,
// records the counters and final forces every timed repetition must
// reproduce, and checks the physics: bounded NVE drift, and an initial
// potential energy that matches the serial SC engine.
func (b *bench) reference() error {
	opt := b.options(b.steps)
	opt.TraceEnergies = true
	res, _, err := b.execute(opt, true)
	if err != nil {
		b.fail("reference run", err)
		return fmt.Errorf("reference run: %w", err)
	}
	b.ref = reference{counters: countersOf(res), forces: res.Forces}
	e0 := res.Energies[0].Total()
	var ke float64
	for _, e := range res.Energies {
		b.ref.drift = math.Max(b.ref.drift, math.Abs(e.Total()-e0))
		ke += e.Kinetic
	}
	b.ref.drift /= ke / float64(len(res.Energies))

	sys, err := md.NewSystem(b.cfg, b.model)
	if err != nil {
		return err
	}
	eng, err := md.NewCellEngine(b.model, sys.Box, md.FamilySC)
	if err != nil {
		return err
	}
	pe, err := eng.Compute(sys)
	if err != nil {
		return err
	}
	b.ref.peRelErr = math.Abs(res.InitialPotential-pe) / math.Abs(pe)

	if !(b.ref.drift <= maxDrift) {
		b.problems = append(b.problems, fmt.Sprintf("NVE energy drift %.3g of mean KE exceeds %g", b.ref.drift, maxDrift))
	}
	if !(b.ref.peRelErr <= maxPERelErr) {
		b.problems = append(b.problems, fmt.Sprintf("initial PE differs from the serial engine by %.3g (relative)", b.ref.peRelErr))
	}
	return nil
}

// check gates one repetition: its exact counters and final forces must
// equal the channel-transport reference bit for bit.
func (b *bench) check(res *parmd.Result) error {
	if got := countersOf(res); got != b.ref.counters {
		return fmt.Errorf("exact counters %+v differ from the reference %+v", got, b.ref.counters)
	}
	if len(res.Forces) != len(b.ref.forces) {
		return fmt.Errorf("%d final forces, reference has %d", len(res.Forces), len(b.ref.forces))
	}
	for i, f := range res.Forces {
		g := b.ref.forces[i]
		if math.Float64bits(f.X) != math.Float64bits(g.X) ||
			math.Float64bits(f.Y) != math.Float64bits(g.Y) ||
			math.Float64bits(f.Z) != math.Float64bits(g.Z) {
			return fmt.Errorf("final force of atom %d is %v, channel reference has %v", i, f, g)
		}
	}
	return nil
}

// setupRep times one run with no steps: decomposition, enumerator and
// exchange-plan build, rendezvous (socket fabric), and the initial
// force evaluation. It returns 0 when the run fails.
func (b *bench) setupRep() float64 {
	res, wall, err := b.execute(b.options(0), false)
	if err != nil {
		b.fail("set-up run", err)
		return 0
	}
	if b.setup0 == nil {
		b.setup0 = res
	}
	return wall.Seconds()
}

// timedRep runs one repetition with every instrument off except the
// in-memory step sink (and, when traced, the span recorder and the
// allocation counter), checks it, and reduces its step samples. It
// returns nil when the run or its check fails.
func (b *bench) timedRep(traced bool) *rep {
	sink := newStepSink(b.steps, traced)
	sw := obs.NewStepWriterTee(nil, nil)
	sw.SetSink(sink)
	opt := b.options(b.steps)
	opt.StepLog = sw
	if traced {
		opt.Recorder = obs.NewRecorder(ranks, 1024)
		opt.MeasureAllocs = true
	}
	if b.transport != nil {
		opt.Transport = b.transport(b.timed)
	}
	b.timed++
	what := fmt.Sprintf("timed repetition %d", b.timed)
	res, outer, err := b.execute(opt, false)
	var rss float64
	if err == nil {
		rss, err = peakRSSMB()
	}
	if err == nil {
		err = b.check(res)
	}
	if err != nil {
		b.fail(what, err)
		return nil
	}

	// Repetitions are kept until the run ends; dropping the gathered
	// state keeps later runs' resident memory from growing with them.
	res.Final, res.Forces = nil, nil
	r := &rep{res: res, outerS: outer.Seconds(), rssMB: rss}
	var sum float64
	for s := 0; s < b.steps; s++ {
		var mx int64
		for rk := 0; rk < ranks; rk++ {
			if sink.wall[rk][s] <= 0 {
				b.fail(what, fmt.Errorf("step log has no record for rank %d step %d", rk, s))
				return nil
			}
			mx = max(mx, sink.wall[rk][s])
		}
		ms := float64(mx) / 1e6
		sum += ms
		if s >= warmSteps {
			r.stepMs = append(r.stepMs, ms)
		}
	}
	r.sinkMean = sum / float64(b.steps)
	// Each rank's timestamps share that rank's epoch, so the loop wall
	// is taken per rank and the slowest rank kept.
	for rk := 0; rk < ranks; rk++ {
		r.loopS = math.Max(r.loopS, float64(sink.end[rk][b.steps-1]-sink.end[rk][warmSteps-1])/1e9)
	}
	if traced {
		r.phaseMs = make(map[string]float64)
		for rk := 0; rk < ranks; rk++ {
			for name, ns := range sink.phase[rk] {
				r.phaseMs[name] = math.Max(r.phaseMs[name], float64(ns)/1e6/float64(b.steps-warmSteps))
			}
		}
	}
	return r
}

// iteration is one set-up run and the timed repetition after it (and,
// in traced runs, a traced repetition), with the share of the host's
// CPU time the hypervisor stole meanwhile.
type iteration struct {
	setupS float64 // 0 when the set-up run failed
	rep    *rep    // nil when the repetition failed
	traced *rep    // nil when not traced or the repetition failed
	steal  float64
}

// timing is what a measuring loop collected: every iteration, and the
// set-up samples and repetitions of the quieter half that the metrics
// are taken from.
type timing struct {
	all     []iteration
	reps    []*rep
	traced  []*rep
	setups  []float64
	elapsed time.Duration
}

// measure runs iterations until one more would exceed the budget (but
// makes at least minIters). Interleaving set-up runs with repetitions,
// and traced repetitions with untraced ones, exposes all of them to the
// same host conditions.
//
// Contention from other tenants of the host only ever slows a run, and
// it comes in bursts that the per-iteration steal share measures. The
// metrics come from the half of the iterations the hypervisor disturbed
// least; the ranking uses no timing of the program itself.
func (b *bench) measure(budget time.Duration, traced bool) (timing, error) {
	var t timing
	start := time.Now()
	for i := 1; ; i++ {
		st0, tot0, err := cpuTicks()
		if err != nil {
			return t, err
		}
		it := iteration{setupS: b.setupRep(), rep: b.timedRep(false)}
		if traced {
			it.traced = b.timedRep(true)
		}
		st1, tot1, err := cpuTicks()
		if err != nil {
			return t, err
		}
		it.steal = ratio(float64(st1-st0), float64(tot1-tot0))
		t.all = append(t.all, it)
		t.elapsed = time.Since(start)
		if i >= minIters && t.elapsed+t.elapsed/time.Duration(i) > budget {
			break
		}
	}
	quiet := append([]iteration(nil), t.all...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].steal < quiet[j].steal })
	for _, it := range quiet[:(len(quiet)+1)/2] {
		if it.rep != nil {
			t.reps = append(t.reps, it.rep)
		}
		if it.traced != nil {
			t.traced = append(t.traced, it.traced)
		}
		if it.setupS > 0 {
			t.setups = append(t.setups, it.setupS)
		}
	}
	return t, nil
}

// steal returns the steal shares of every iteration and of the quieter
// half.
func (t timing) steal() (all, quiet []float64) {
	for _, it := range t.all {
		all = append(all, it.steal)
	}
	sort.Float64s(all)
	return all, all[:(len(all)+1)/2]
}

// samples pools the steady-state step samples of the repetitions.
func samples(reps []*rep) []float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.stepMs...)
	}
	return xs
}

// perRep applies f to every repetition.
func perRep(reps []*rep, f func(*rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
