// Package flight is the retained-history layer of the telemetry
// stack: a flight recorder that keeps the last N steps of every
// rank's step records in multi-resolution ring buffers (raw, 10×, and
// 100× downsampled min/max/mean aggregates), runs online anomaly
// detectors over each completed step, and writes postmortem bundles
// when a run aborts.
//
// The recorder is fed from the existing StepWriter line (it
// implements obs.StepSink), so the on-disk JSONL log, the live /steps
// stream, and the retained history can never disagree — they all see
// the identical records. The ingest path is allocation-free in the
// steady state: records land in preallocated fixed-shape slots
// indexed by an interned field table, aggregates update in place, and
// detector state is a handful of scalars. The only allocations after
// warm-up happen when an anomaly actually fires (its JSON event line)
// — and anomalies are, by construction, rare.
package flight

import (
	"math"
	"strings"
	"sync"

	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
)

// maxFields bounds the interned field vocabulary (wall time, phases,
// counters). The simulation emits ~30; the bound keeps every ring
// slot a fixed-size value. Fields past the bound are counted in
// DroppedFields instead of silently vanishing.
const maxFields = 128

// Config configures a Recorder. Every reference field is optional and
// nil-safe.
type Config struct {
	// Ranks is the number of ranks feeding records — the records-per-
	// step count the step-completion tracking needs (minimum 1).
	Ranks int
	// Registry, when non-nil, receives anomaly.<kind>.total counters.
	Registry *obs.Registry
	// Tee, when non-nil, receives one "anomaly" event line per fired
	// anomaly — SSE subscribers of /steps see them as event:anomaly
	// frames interleaved with the step records.
	Tee *obs.StepTee
	// Health, when non-nil, feeds the warn-streak detector.
	Health *health.Monitor
}

const (
	// rawSteps is the raw ring depth in steps: the recorder retains
	// Ranks×rawSteps full records.
	rawSteps = 1024
	// aggBuckets is the bucket count of each downsampled ring: the 10×
	// ring spans 10×aggBuckets steps, the 100× ring 100×aggBuckets.
	aggBuckets = 512
)

// fieldClass buckets a field for the model-residual detector: which
// side of the perfmodel's compute/comm decomposition it lands on.
type fieldClass uint8

const (
	classOther fieldClass = iota
	classCompute
	classComm
)

// phaseClass maps a recorded phase name onto the perfmodel's
// decomposition: force evaluation, tuple search, integration, and
// binning are compute; the exchange phases (halo, write-back,
// migration, reductions, balance traffic) are communication.
func phaseClass(name string) fieldClass {
	switch {
	case strings.HasPrefix(name, "force"), name == "search", name == "integrate", name == "bin":
		return classCompute
	case strings.HasPrefix(name, "halo"), name == "writeback", name == "migrate",
		name == "reduce", name == "balance", name == "repartition":
		return classComm
	}
	return classOther
}

// fieldTable interns field names to dense indices. Phase and counter
// namespaces are interned through separate maps so the hot path never
// concatenates a prefix; display names ("wall_ns", "phase.halo",
// "comm_wait_ns") are built once at intern time.
type fieldTable struct {
	names   []string
	class   []fieldClass
	phase   map[string]int
	counter map[string]int
	dropped int64
}

func newFieldTable() *fieldTable {
	ft := &fieldTable{
		names:   make([]string, 0, maxFields),
		class:   make([]fieldClass, 0, maxFields),
		phase:   make(map[string]int, 32),
		counter: make(map[string]int, 32),
	}
	ft.names = append(ft.names, "wall_ns") // index 0, always present
	ft.class = append(ft.class, classOther)
	return ft
}

const wallField = 0

func (ft *fieldTable) add(display string, class fieldClass) int {
	if len(ft.names) >= maxFields {
		ft.dropped++
		return -1
	}
	ft.names = append(ft.names, display)
	ft.class = append(ft.class, class)
	return len(ft.names) - 1
}

func (ft *fieldTable) phaseField(name string) int {
	if id, ok := ft.phase[name]; ok {
		return id
	}
	id := ft.add("phase."+name, phaseClass(name))
	ft.phase[name] = id
	return id
}

func (ft *fieldTable) counterField(name string) int {
	if id, ok := ft.counter[name]; ok {
		return id
	}
	id := ft.add(name, classOther)
	ft.counter[name] = id
	return id
}

// rawRec is one retained record in fixed shape: scalar header plus a
// dense field vector indexed by the intern table (NaN = field absent
// from the record).
type rawRec struct {
	step   int
	rank   int
	wallNs int64
	tNs    int64
	used   bool
	vals   [maxFields]float64
}

// fieldAgg is one field's min/max/sum aggregate inside one bucket.
type fieldAgg struct {
	min, max, sum float64
	n             int64
}

// aggBucket aggregates all records of res consecutive steps.
type aggBucket struct {
	start  int // first step of the bucket; -1 = empty
	count  int64
	fields [maxFields]fieldAgg
}

// aggRing is one downsampled resolution: a ring of buckets, each
// spanning res steps, indexed by (step/res) mod len.
type aggRing struct {
	res     int
	buckets []aggBucket
}

func newAggRing(res int) *aggRing {
	r := &aggRing{res: res, buckets: make([]aggBucket, aggBuckets)}
	for i := range r.buckets {
		r.buckets[i].start = -1
	}
	return r
}

func (r *aggRing) bucket(step int) *aggBucket {
	start := (step / r.res) * r.res
	b := &r.buckets[(step/r.res)%len(r.buckets)]
	if b.start != start {
		b.start = start
		b.count = 0
		for i := range b.fields {
			b.fields[i] = fieldAgg{}
		}
	}
	return b
}

func (b *aggBucket) observe(id int, v float64) {
	fa := &b.fields[id]
	if fa.n == 0 {
		fa.min, fa.max = v, v
	} else {
		if v < fa.min {
			fa.min = v
		}
		if v > fa.max {
			fa.max = v
		}
	}
	fa.sum += v
	fa.n++
}

// stepAcc accumulates one in-flight step across ranks; when all Ranks
// records have arrived the step is "complete" and runs through the
// detectors.
type stepAcc struct {
	step       int
	n          int
	tNs        int64
	wallMax    float64
	wallSum    float64
	commWaitNs float64 // summed over ranks
	computeMax float64 // max over ranks of the compute-class phase sum
	commMax    float64 // max over ranks of the comm-class phase sum
}

// pendingSteps bounds how many partially-observed steps the recorder
// tracks at once; with ranks emitting in step order the live spread
// is 1–2 steps, and offline replay of interleaved logs stays well
// under the bound.
const pendingSteps = 256

// Recorder retains step records and runs the online detectors. It
// implements obs.StepSink; attach with StepWriter.SetSink. All
// methods are safe for concurrent use; a nil *Recorder is a valid
// disabled recorder on the query paths.
type Recorder struct {
	mu      sync.Mutex
	cfg     Config
	ft      *fieldTable
	raw     []rawRec
	rawN    int64 // total records ingested
	res10   *aggRing
	res100  *aggRing
	pending [pendingSteps]stepAcc
	det     detectors
	log     anomalyLog
	pred    Prediction
	hasPred bool
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	r := &Recorder{
		cfg:    cfg,
		ft:     newFieldTable(),
		raw:    make([]rawRec, rawSteps*cfg.Ranks),
		res10:  newAggRing(10),
		res100: newAggRing(100),
	}
	for i := range r.pending {
		r.pending[i].step = -1
	}
	r.det.init()
	r.log.init(cfg.Registry)
	return r
}

// Ranks returns the configured rank count.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return r.cfg.Ranks
}

// Prediction is the performance model's per-step expectation mapped
// onto the recorder's phase classes, in nanoseconds per step per
// task. The residual detector compares the measured max-over-ranks
// compute and comm phase times against it. Plain floats (rather than
// a perfmodel type) keep this package free of an import cycle:
// perfmodel sits above parmd, which is fed by this layer's records.
type Prediction struct {
	ComputeNs float64 `json:"compute_ns"`
	CommNs    float64 `json:"comm_ns"`
	TotalNs   float64 `json:"total_ns"`
}

// SetPrediction arms the model-residual detector — callable mid-run
// (calibrating perfmodel.LocalMachine takes seconds, so scmd does it
// in the background while the run is already stepping).
func (r *Recorder) SetPrediction(p Prediction) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pred = p
	r.hasPred = true
}

// ObserveStep ingests one rank's record for one step (the
// obs.StepSink hook). Allocation-free in the steady state.
func (r *Recorder) ObserveStep(rec obs.StepRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Raw ring: arrival order, fixed-shape slot.
	slot := &r.raw[r.rawN%int64(len(r.raw))]
	r.rawN++
	slot.step, slot.rank, slot.wallNs, slot.tNs, slot.used = rec.Step, rec.Rank, rec.WallNs, rec.TNs, true
	for i := range slot.vals {
		slot.vals[i] = math.NaN()
	}
	slot.vals[wallField] = float64(rec.WallNs)
	for k, v := range rec.PhaseNs {
		if id := r.ft.phaseField(k); id >= 0 {
			slot.vals[id] = float64(v)
		}
	}
	for k, v := range rec.Counters {
		if id := r.ft.counterField(k); id >= 0 {
			slot.vals[id] = float64(v)
		}
	}

	// Downsampled rings.
	if rec.Step >= 0 {
		for _, ring := range [2]*aggRing{r.res10, r.res100} {
			b := ring.bucket(rec.Step)
			b.count++
			for id := 0; id < len(r.ft.names); id++ {
				if v := slot.vals[id]; !math.IsNaN(v) {
					b.observe(id, v)
				}
			}
		}
	}

	// Step-completion tracking for the detectors.
	if rec.Step < 0 {
		return
	}
	acc := &r.pending[rec.Step%pendingSteps]
	if acc.step != rec.Step {
		if acc.step >= 0 && acc.n > 0 {
			r.finalize(acc)
		}
		*acc = stepAcc{step: rec.Step}
	}
	acc.n++
	if t := rec.TNs; t > acc.tNs {
		acc.tNs = t
	}
	wall := float64(rec.WallNs)
	acc.wallSum += wall
	if wall > acc.wallMax {
		acc.wallMax = wall
	}
	var compute, comm float64
	for id := 1; id < len(r.ft.names); id++ {
		v := slot.vals[id]
		if math.IsNaN(v) {
			continue
		}
		switch r.ft.class[id] {
		case classCompute:
			compute += v
		case classComm:
			comm += v
		}
	}
	if compute > acc.computeMax {
		acc.computeMax = compute
	}
	if comm > acc.commMax {
		acc.commMax = comm
	}
	if cw, ok := rec.Counters["comm_wait_ns"]; ok {
		acc.commWaitNs += float64(cw)
	}
	if acc.n >= r.cfg.Ranks {
		r.finalize(acc)
		acc.step = -1
	}
}

// finalize runs the detectors over a completed (or abandoned-partial)
// step. Caller holds r.mu.
func (r *Recorder) finalize(acc *stepAcc) {
	r.det.step(r, acc)
}

// Flush finalizes every still-pending step in step order — the
// offline replay path calls it after the last record, so trailing
// steps that never saw all ranks (a rank died mid-run) still reach
// the detectors.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []*stepAcc
	for i := range r.pending {
		if acc := &r.pending[i]; acc.step >= 0 && acc.n > 0 {
			live = append(live, acc)
		}
	}
	for swapped := true; swapped; { // tiny slice; step-order finalize
		swapped = false
		for i := 1; i < len(live); i++ {
			if live[i-1].step > live[i].step {
				live[i-1], live[i] = live[i], live[i-1]
				swapped = true
			}
		}
	}
	for _, acc := range live {
		r.finalize(acc)
		acc.step = -1
	}
}

// CompletedSteps returns how many steps have passed through the
// detectors.
func (r *Recorder) CompletedSteps() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.det.completed
}

// Records returns the total record count ingested.
func (r *Recorder) Records() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rawN
}

// DroppedFields returns how many field-intern requests were refused
// by the vocabulary bound (0 in any normal run).
func (r *Recorder) DroppedFields() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ft.dropped
}

// FieldStats is one field's aggregate over one history bucket.
type FieldStats struct {
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int64   `json:"count"`
}

// HistoryBucket is one downsampled history entry: all records of
// Steps consecutive steps starting at Step, aggregated per field.
type HistoryBucket struct {
	Step   int                   `json:"step"`
	Steps  int                   `json:"steps"`
	Count  int64                 `json:"count"`
	Fields map[string]FieldStats `json:"fields"`
}

// HistorySnapshot is the /history body: raw records at Res 1, bucket
// aggregates at Res 10 or 100, oldest first.
type HistorySnapshot struct {
	Res     int              `json:"res"`
	Ranks   int              `json:"ranks"`
	Records []obs.StepRecord `json:"records,omitempty"`
	Buckets []HistoryBucket  `json:"buckets,omitempty"`
}

// History snapshots the retained history at a resolution (1 = raw
// records, 10 or 100 = downsampled buckets; anything else returns an
// empty snapshot). fields, when non-empty, filters which fields the
// snapshot carries — display names as listed by the buckets
// ("wall_ns", "phase.halo", "comm_wait_ns", plus raw counter and
// phase names); wall time and timestamps always ride along on raw
// records.
func (r *Recorder) History(res int, fields []string) HistorySnapshot {
	if r == nil {
		return HistorySnapshot{Res: res}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := HistorySnapshot{Res: res, Ranks: r.cfg.Ranks}
	keep := func(display string) bool {
		if len(fields) == 0 {
			return true
		}
		for _, f := range fields {
			if f == display || f == strings.TrimPrefix(display, "phase.") {
				return true
			}
		}
		return false
	}
	switch res {
	case 1:
		n := int64(len(r.raw))
		start := int64(0)
		if r.rawN > n {
			start = r.rawN - n
		}
		for i := start; i < r.rawN; i++ {
			snap.Records = append(snap.Records, r.record(&r.raw[i%n], keep))
		}
	case 10, 100:
		ring := r.res10
		if res == 100 {
			ring = r.res100
		}
		// Walk buckets oldest-first: ring order starting after the
		// newest bucket, skipping empties.
		type idxStart struct{ idx, start int }
		var order []idxStart
		for i := range ring.buckets {
			if ring.buckets[i].start >= 0 {
				order = append(order, idxStart{i, ring.buckets[i].start})
			}
		}
		for swapped := true; swapped; {
			swapped = false
			for i := 1; i < len(order); i++ {
				if order[i-1].start > order[i].start {
					order[i-1], order[i] = order[i], order[i-1]
					swapped = true
				}
			}
		}
		for _, o := range order {
			b := &ring.buckets[o.idx]
			hb := HistoryBucket{
				Step: b.start, Steps: ring.res, Count: b.count,
				Fields: make(map[string]FieldStats),
			}
			for id, name := range r.ft.names {
				fa := b.fields[id]
				if fa.n == 0 || !keep(name) {
					continue
				}
				hb.Fields[name] = FieldStats{
					Min: fa.min, Max: fa.max, Mean: fa.sum / float64(fa.n), Count: fa.n,
				}
			}
			snap.Buckets = append(snap.Buckets, hb)
		}
	}
	return snap
}

// record rebuilds an obs.StepRecord from a raw slot (cold path:
// snapshots and bundle writing).
func (r *Recorder) record(slot *rawRec, keep func(string) bool) obs.StepRecord {
	rec := obs.StepRecord{Step: slot.step, Rank: slot.rank, WallNs: slot.wallNs, TNs: slot.tNs}
	for name, id := range r.ft.phase {
		if id < 0 || math.IsNaN(slot.vals[id]) || !keep(r.ft.names[id]) {
			continue
		}
		if rec.PhaseNs == nil {
			rec.PhaseNs = make(map[string]int64)
		}
		rec.PhaseNs[name] = int64(slot.vals[id])
	}
	for name, id := range r.ft.counter {
		if id < 0 || math.IsNaN(slot.vals[id]) || !keep(name) {
			continue
		}
		if rec.Counters == nil {
			rec.Counters = make(map[string]int64)
		}
		rec.Counters[name] = int64(slot.vals[id])
	}
	return rec
}
