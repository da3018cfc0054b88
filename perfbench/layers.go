package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/nlist"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
)

// microTime is how long each layer microbenchmark repeats its call.
const microTime = 300 * time.Millisecond

// commClasses are the traffic classes reported per step.
var commClasses = []string{"halo", "force", "migrate", "collective"}

// tracer keeps the benchmark's own spans — one around each timed call
// into a layer's public functions — in memory until the run ends. A
// nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"` // duration minus the child spans'
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span nested in the innermost open one and returns the
// function that closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// finish fills in self times and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	for i := range t.spans {
		t.spans[i].SelfNs += t.spans[i].EndNs - t.spans[i].StartNs
		if p := t.spans[i].Parent; p > 0 {
			t.spans[p-1].SelfNs -= t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	return t.spans
}

// timeCalls repeats fn for at least minDur and three calls, and returns
// the fastest call's time in ns: every call does the same work, and
// contention from the rest of the host only ever adds time.
func timeCalls(minDur time.Duration, fn func()) float64 {
	best := math.Inf(1)
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < minDur; n++ {
		t := time.Now()
		fn()
		best = math.Min(best, float64(time.Since(t).Nanoseconds()))
	}
	return best
}

// linkCost is one transport's measured message cost: one-way time of
// an 8-byte message and of a message of the workload's mean halo size.
type linkCost struct {
	LatencyUs float64 `json:"latency_us"`
	HaloUs    float64 `json:"halo_us"`
	HaloBytes float64 `json:"halo_bytes"`
}

// msgMs is the linear cost model through the two measured points: the
// time, in ms, of one message of the given size.
func (l linkCost) msgMs(bytes float64) float64 {
	slope := 0.0
	if l.HaloBytes > 8 {
		slope = max(l.HaloUs-l.LatencyUs, 0) / (l.HaloBytes - 8)
	}
	return (l.LatencyUs + slope*max(bytes-8, 0)) / 1e3
}

// pingPong returns the one-way time, in µs, of size-byte messages
// between two ranks: half the median round trip over iters exchanges.
// network "" is the in-process channel transport; "unix" or "tcp" a
// socket fabric between two in-process ranks.
func pingPong(network string, size, iters int) (float64, error) {
	var rtts []float64
	body := func(p *comm.Proc) error {
		peer := 1 - p.Rank()
		for i := -10; i < iters; i++ { // ten warm-up exchanges
			if p.Rank() == 1 {
				p.SendBuffer(peer, 1, p.RecvBuffer(peer, 1))
				continue
			}
			b := p.AcquireBuffer()
			b.Grow(size)
			t := time.Now()
			p.SendBuffer(peer, 1, b)
			p.ReleaseBuffer(p.RecvBuffer(peer, 1))
			if i >= 0 {
				rtts = append(rtts, float64(time.Since(t).Nanoseconds()))
			}
		}
		return nil
	}
	if network == "" {
		if err := comm.NewWorld(2).Run(body); err != nil {
			return 0, err
		}
		return median(rtts) / 2 / 1e3, nil
	}
	dir, err := os.MkdirTemp("", "pbsock")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(dir, "rdv.sock")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	token := comm.NewSessionToken()
	rdv := make(chan error, 1)
	go func() { rdv <- comm.ServeRendezvous(ln, 2, token, 30*time.Second) }()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := comm.DialSocket(comm.SocketConfig{
				Network: network, Rendezvous: ln.Addr().String(),
				Rank: rank, Size: 2, Token: token, Timeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer tr.Close()
			errs[rank] = comm.NewWorldRank(2, rank, tr).Run(body)
		}(rank)
	}
	wg.Wait()
	if err := errors.Join(append(errs, <-rdv)...); err != nil {
		return 0, err
	}
	return median(rtts) / 2 / 1e3, nil
}

// layerCosts are the per-operation costs of the layers below a step,
// measured on the workload's own configuration.
type layerCosts struct {
	CandidateNs float64             `json:"candidate_ns"` // tuple: Enumerator.Count per candidate
	PairEvalNs  float64             `json:"pair_eval_ns"`
	TripletNs   float64             `json:"triplet_eval_ns"`
	BuildNs     float64             `json:"build_ns_per_pair"` // nlist: Builder.Build per list entry
	RebinNs     float64             `json:"rebin_ns_per_atom"` // cell: Rebin + Sorter.Plan
	Pairs       int64               `json:"force_set_pairs"`   // |S(2)| of the configuration
	Triplets    int64               `json:"force_set_triplets"`
	Links       map[string]linkCost `json:"links"` // "chan", "unix"
	SerialMs    float64             `json:"serial_step_ms"`
}

// measureLayers times each layer's public entry points on the
// workload's configuration, each call under its own span.
func (b *bench) measureLayers(haloBytes float64) (layerCosts, error) {
	lc := layerCosts{Links: make(map[string]linkCost)}
	pos := b.cfg.Pos
	lat, err := cell.NewLattice(b.cfg.Box, b.model.MaxCutoff())
	if err != nil {
		return lc, err
	}
	bin := cell.NewBinning(lat, pos)
	var pairTerm, tripTerm potential.Term
	for _, t := range b.model.Terms {
		switch t.N() {
		case 2:
			pairTerm = t
		case 3:
			tripTerm = t
		}
	}
	if pairTerm == nil || tripTerm == nil {
		return lc, fmt.Errorf("silica model lacks a pair or triplet term")
	}

	// tuple: the SC enumerators of the parallel SC engine (every term on
	// the pair lattice), or the Hybrid engine's raw full-shell pair search.
	var enums []*tuple.Enumerator
	if b.spec.Scheme == parmd.SchemeHybrid {
		en, err := tuple.NewEnumerator(bin, core.FS(2), pairTerm.Cutoff(), tuple.DedupNone)
		if err != nil {
			return lc, err
		}
		enums = append(enums, en)
	}
	scEnum := map[int]*tuple.Enumerator{}
	for _, t := range []potential.Term{pairTerm, tripTerm} {
		en, err := tuple.NewEnumerator(bin, core.SC(t.N()), t.Cutoff(), tuple.DedupAuto)
		if err != nil {
			return lc, err
		}
		scEnum[t.N()] = en
		if b.spec.Scheme != parmd.SchemeHybrid {
			enums = append(enums, en)
		}
	}
	var cands int64
	for _, en := range enums {
		cands += en.Count(pos).Candidates
	}
	end := b.spans.start("tuple.Enumerator.Count")
	ns := timeCalls(microTime, func() {
		for _, en := range enums {
			en.Count(pos)
		}
	})
	end()
	lc.CandidateNs = ns / float64(cands)

	// potential: Term.Eval over tuples sampled from the configuration.
	const maxSamples = 4096
	type sample struct {
		sp  []int32
		pos []geom.Vec3
	}
	samples := map[int][]sample{}
	for n, en := range scEnum {
		st := en.Visit(pos, func(atoms []int32, p []geom.Vec3) {
			if len(samples[n]) == maxSamples {
				return
			}
			s := sample{sp: make([]int32, len(atoms)), pos: append([]geom.Vec3(nil), p...)}
			for i, a := range atoms {
				s.sp[i] = b.cfg.Species[a]
			}
			samples[n] = append(samples[n], s)
		})
		if n == 2 {
			lc.Pairs = st.Emitted
		} else {
			lc.Triplets = st.Emitted
		}
	}
	evalNs := func(t potential.Term) float64 {
		f := make([]geom.Vec3, t.N())
		ss := samples[t.N()]
		end := b.spans.start(fmt.Sprintf("potential.Term.Eval n=%d", t.N()))
		defer end()
		return timeCalls(microTime, func() {
			for _, s := range ss {
				t.Eval(s.sp, s.pos, f)
			}
		}) / float64(len(ss))
	}
	lc.PairEvalNs, lc.TripletNs = evalNs(pairTerm), evalNs(tripTerm)

	// nlist: a full pair-list rebuild per call.
	builder, err := nlist.NewBuilder(bin, pairTerm.Cutoff(), nil)
	if err != nil {
		return lc, err
	}
	pl, err := builder.Build(pos)
	if err != nil {
		return lc, err
	}
	entries := pl.NumEntries()
	end = b.spans.start("nlist.Builder.Build")
	lc.BuildNs = timeCalls(microTime, func() { builder.Build(pos) }) / float64(entries)
	end()

	// cell: binning plus the canonical (cell, ID) sort plan.
	keys := make([]int64, len(pos))
	cells := make([]int32, len(pos))
	for i := range keys {
		keys[i] = int64(i)
	}
	var sorter cell.Sorter
	end = b.spans.start("cell.Binning.Rebin+Sorter.Plan")
	lc.RebinNs = timeCalls(microTime, func() {
		bin.Rebin(pos)
		for i := range cells {
			cells[i] = int32(bin.CellOfAtom(i))
		}
		sorter.Plan(lat.NumCells(), cells, keys)
	}) / float64(len(pos))
	end()

	// comm: ping-pong over both transports.
	for _, link := range []struct{ name, network string }{{"chan", ""}, {"unix", "unix"}} {
		end := b.spans.start("comm.pingpong " + link.name)
		lat8, err := pingPong(link.network, 8, 400)
		if err == nil {
			var halo float64
			halo, err = pingPong(link.network, int(haloBytes), 200)
			lc.Links[link.name] = linkCost{LatencyUs: lat8, HaloUs: halo, HaloBytes: haloBytes}
		}
		end()
		if err != nil {
			return lc, fmt.Errorf("ping-pong over %s: %w", link.name, err)
		}
	}

	// md: one goroutine stepping the serial engine of the same family.
	sys, err := md.NewSystem(b.cfg, b.model)
	if err != nil {
		return lc, err
	}
	var eng md.Engine
	if b.spec.Scheme == parmd.SchemeHybrid {
		eng, err = md.NewHybridEngine(b.model, sys.Box)
	} else {
		eng, err = md.NewCellEngine(b.model, sys.Box, md.FamilySC)
	}
	if err != nil {
		return lc, err
	}
	sim, err := md.NewSim(sys, eng, dtFs)
	if err != nil {
		return lc, err
	}
	end = b.spans.start("md.Sim.Step")
	lc.SerialMs = timeCalls(4*microTime, func() {
		if serr := sim.Step(); serr != nil && err == nil {
			err = serr
		}
	}) / 1e6
	end()
	return lc, err
}

// attribTerm is one line of the counter-based step attribution.
type attribTerm struct {
	Layer string  `json:"layer"`
	Basis string  `json:"basis"`
	Ms    float64 `json:"ms"`
}

// perStep holds the step's exact counters: max over ranks for the
// per-rank work, world totals per traffic class.
type perStep struct {
	candidates, tuples, pairs, atoms float64
	bytes, msgs, waitMs              map[string]float64
}

// stepCounters derives one step's counters from a repetition and the
// set-up run (which holds the counters of the initial evaluation).
func (b *bench) stepCounters(r *rep) perStep {
	n := float64(b.steps)
	ps := perStep{bytes: map[string]float64{}, msgs: map[string]float64{}, waitMs: map[string]float64{}}
	for rk := range r.res.RankStats {
		s, s0 := r.res.RankStats[rk], b.setup0.RankStats[rk]
		ps.candidates = max(ps.candidates, float64(s.SearchCandidates-s0.SearchCandidates)/n)
		ps.tuples = max(ps.tuples, float64(s.TuplesEvaluated-s0.TuplesEvaluated)/n)
		ps.pairs = max(ps.pairs, float64(s.PairListEntries-s0.PairListEntries)/n)
		ps.atoms = max(ps.atoms, float64(s.OwnedAtoms)+float64(s.AtomsImported-s0.AtomsImported)/n)
	}
	for _, c := range commClasses {
		s, s0 := r.res.CommByClass[c], b.setup0.CommByClass[c]
		ps.bytes[c] = float64(s.Bytes-s0.Bytes) / n
		ps.msgs[c] = float64(s.Messages-s0.Messages) / n
		// Wait is a time, not an exact count, so the set-up run's wait
		// is not subtracted: the figure includes the initial exchange.
		ps.waitMs[c] = float64(s.Wait.Nanoseconds()) / 1e6 / n
	}
	return ps
}

// attribute splits a step by counters × measured per-operation costs.
// A workload with a pair list pays its search inside the list build, so
// it is charged pairs × build cost instead of candidates × search cost.
func (b *bench) attribute(ps perStep, lc layerCosts) []attribTerm {
	var terms []attribTerm
	if ps.pairs > 0 {
		terms = append(terms, attribTerm{"nlist", fmt.Sprintf("%.0f pairs × %.2f ns", ps.pairs, lc.BuildNs), ps.pairs * lc.BuildNs / 1e6})
	} else {
		terms = append(terms, attribTerm{"tuple", fmt.Sprintf("%.0f candidates × %.2f ns", ps.candidates, lc.CandidateNs), ps.candidates * lc.CandidateNs / 1e6})
	}
	f2 := float64(lc.Pairs) / float64(lc.Pairs+lc.Triplets)
	evalNs := f2*lc.PairEvalNs + (1-f2)*lc.TripletNs
	terms = append(terms,
		attribTerm{"potential", fmt.Sprintf("%.0f tuples × %.2f ns (%.0f%% pairs)", ps.tuples, evalNs, 100*f2), ps.tuples * evalNs / 1e6},
		attribTerm{"cell", fmt.Sprintf("%.0f atoms × %.2f ns", ps.atoms, lc.RebinNs), ps.atoms * lc.RebinNs / 1e6})
	link := lc.Links["chan"]
	if b.spec.Network != "" {
		link = lc.Links[b.spec.Network]
	}
	var commMs float64
	var msgs, bytes float64
	for _, c := range commClasses {
		if m := ps.msgs[c] / ranks; m > 0 {
			commMs += m * link.msgMs(ps.bytes[c]/ps.msgs[c])
			msgs += m
			bytes += ps.bytes[c] / ranks
		}
	}
	terms = append(terms, attribTerm{"comm", fmt.Sprintf("%.1f msgs, %.0f B per rank", msgs, bytes), commMs})
	return terms
}

// layerRun is the traced run: untraced repetitions for the reference
// step time alternating with traced ones for the phase split, then the
// layer microbenchmarks and the attribution. It returns the per-layer
// metrics; end-to-end metrics never come from here.
func (b *bench) layerRun(budget time.Duration, rec *record) (map[string]metric, error) {
	b.spans = newTracer()
	t, err := b.measure(budget, true)
	if err != nil {
		return nil, err
	}
	plain, traced := t.reps, t.traced
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no repetition succeeded: %s", strings.Join(b.problems, "; "))
	}
	p50 := median(samples(plain))
	p50traced := median(samples(traced))
	ps := b.stepCounters(plain[0])
	haloBytes := ratio(ps.bytes["halo"], ps.msgs["halo"])

	lc, err := b.measureLayers(haloBytes)
	if err != nil {
		return nil, err
	}
	end := b.spans.start("perfmodel.LocalMachine+PredictStep")
	host, local, err := fingerprintHost()
	var pred perfmodel.StepPrediction
	if err == nil {
		var pm *perfmodel.Model
		if pm, err = perfmodel.NewModel(local); err == nil {
			pred = pm.PredictStep(b.spec.Scheme, float64(b.cfg.N())/ranks)
		}
	}
	end()
	if err != nil {
		return nil, err
	}
	rec.Host = host

	terms := b.attribute(ps, lc)
	var attributed float64
	for _, t := range terms {
		attributed += t.Ms
	}
	rec.Layers = &lc
	rec.Attribution = terms

	// phase sums the per-step times of the phases name selects; every
	// span parmd labels "force:…" is force evaluation.
	phase := func(name string) float64 {
		return median(perRep(traced, func(r *rep) float64 {
			var v float64
			for p, ms := range r.phaseMs {
				if p == name || (name == "force:" && strings.HasPrefix(p, name)) {
					v += ms
				}
			}
			return v
		}))
	}
	setupS := median(t.setups)
	m := map[string]metric{
		"tuple.candidates_per_step":   {ps.candidates, "count"},
		"tuple.hit_rate":              {ratio(ps.tuples, ps.candidates), "ratio"},
		"tuple.ns_per_candidate":      {lc.CandidateNs, "ns"},
		"kernel.tuples_per_step":      {ps.tuples, "count"},
		"potential.pair_eval_ns":      {lc.PairEvalNs, "ns"},
		"potential.triplet_eval_ns":   {lc.TripletNs, "ns"},
		"nlist.pairs_per_step":        {ps.pairs, "count"},
		"nlist.build_ns_per_pair":     {lc.BuildNs, "ns"},
		"cell.rebin_ns_per_atom":      {lc.RebinNs, "ns"},
		"parmd.phase.force_ms":        {phase("force:"), "ms"},
		"parmd.phase.search_ms":       {phase("search"), "ms"},
		"parmd.phase.bin_ms":          {phase("bin"), "ms"},
		"parmd.phase.integrate_ms":    {phase("integrate"), "ms"},
		"parmd.phase.migrate_ms":      {phase("migrate"), "ms"},
		"parmd.phase.halo_ms":         {phase("halo"), "ms"},
		"parmd.phase.halo_wait_ms":    {phase("halo:wait"), "ms"},
		"parmd.phase.writeback_ms":    {phase("writeback"), "ms"},
		"parmd.phase.reduce_ms":       {phase("reduce"), "ms"},
		"parmd.overlap_fraction":      {median(perRep(traced, func(r *rep) float64 { return r.res.OverlapFraction() })), "ratio"},
		"parmd.imbalance":             {median(perRep(plain, func(r *rep) float64 { return r.res.ForceImbalance() })), "ratio"},
		"parmd.allocs_per_step":       {median(perRep(traced, func(r *rep) float64 { return r.res.StepAllocs })), "count"},
		"md.serial_step_ms":           {lc.SerialMs, "ms"},
		"parmd.parallel_efficiency":   {lc.SerialMs / (ranks * p50), "ratio"},
		"perfmodel.predicted_step_ms": {pred.TotalNs / 1e6, "ms"},
		"attrib.remainder_ms":         {p50 - attributed, "ms"},
		"obs.trace_overhead_pct":      {100 * (p50traced - p50) / p50, "%"},
		"obs.sink_gap_pct": {median(perRep(plain, func(r *rep) float64 {
			return 100 * ((r.outerS-setupS)*1e3/float64(b.steps) - r.sinkMean) / r.sinkMean
		})), "%"},
	}
	for _, c := range commClasses {
		m["comm."+c+".bytes_per_step"] = metric{ps.bytes[c], "B"}
		m["comm."+c+".msgs_per_step"] = metric{ps.msgs[c], "count"}
		m["comm."+c+".wait_ms_per_step"] = metric{median(perRep(plain, func(r *rep) float64 {
			return b.stepCounters(r).waitMs[c]
		})), "ms"}
	}
	for name, l := range lc.Links {
		m["comm.latency_us."+name] = metric{l.LatencyUs, "us"}
		m["comm.pingpong_us."+name] = metric{l.HaloUs, "us"}
		m["comm.bandwidth_mb_s."+name] = metric{l.HaloBytes / l.HaloUs, "MB/s"}
	}

	rec.Diagnostics = map[string]float64{
		"step_ms_p50_untraced": p50, "step_ms_p50_traced": p50traced,
		"attrib_sum_ms": attributed, "samples_untraced": float64(len(samples(plain))),
		"samples_traced": float64(len(samples(traced))), "halo_msg_bytes": haloBytes,
	}
	report := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	report("attribution, ms per step (counters × measured cost, max-rank work):")
	for _, t := range terms {
		report("  %-10s %9.3f   %s", t.Layer, t.Ms, t.Basis)
	}
	report("  %-10s %9.3f", "sum", attributed)
	report("  %-10s %9.3f   untraced median of %d steps", "measured", p50, len(samples(plain)))
	report("  %-10s %9.3f   (%.0f%% of measured)", "remainder", p50-attributed, 100*(p50-attributed)/p50)
	report("traced median %.3f ms/step: trace overhead %+.2f%%", p50traced, 100*(p50traced-p50)/p50)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
