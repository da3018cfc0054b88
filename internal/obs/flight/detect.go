package flight

import (
	"encoding/json"
	"math"

	"sctuple/internal/obs"
)

// The online detectors' thresholds, deliberately conservative — a
// detector that cries wolf on ordinary jitter is worse than none.
const (
	// warmupSteps is the number of completed steps used to seed the
	// running statistics before any detector may fire.
	warmupSteps = 30
	// wallZWarn/wallZHard are the robust z-score thresholds of the
	// step-wall-time spike detector: the per-step max-over-ranks wall
	// time is scored against an EWMA mean and an EWMA absolute
	// deviation scaled by 1.4826 (the MAD-to-σ factor for normal data),
	// floored at 5% of the mean so an ultra-steady run doesn't turn
	// scheduler noise into anomalies.
	wallZWarn = 8
	wallZHard = 16
	// imbalanceWarn fires the imbalance-drift detector when the EWMA
	// of per-step max/mean wall time stays at or above it for
	// imbalanceSteps consecutive completed steps.
	imbalanceWarn  = 1.6
	imbalanceSteps = 25
	// commWaitRatio fires the comm-wait growth detector when a fast
	// EWMA of the run's comm-wait fraction (comm_wait_ns summed over
	// ranks / wall summed over ranks) exceeds commWaitRatio times its
	// slow EWMA while above commWaitFloor — the signature of
	// communication degrading mid-run rather than being
	// constitutionally slow.
	commWaitRatio = 2.5
	commWaitFloor = 0.15
	// warnStreak fires the health detector after this many
	// consecutive sampled health observations that produced new warn
	// results. New fail results fire a hard anomaly immediately.
	warnStreak = 5
	// modelBand/modelSteps tune the measured-vs-perfmodel residual
	// detector: once a prediction is set, the EWMA of the measured
	// max-over-ranks compute (and, separately, comm) phase time is
	// compared against the model's expectation, and a ratio outside
	// [1/modelBand, modelBand] for modelSteps consecutive steps fires.
	modelBand  = 3.0
	modelSteps = 50
	// cooldownSteps is the minimum number of steps between two
	// anomalies of the same kind, bounding the event rate of a
	// persistently sick run.
	cooldownSteps = 50
	// logSize bounds the retained anomaly ring.
	logSize = 256
)

// Anomaly kinds. AnomalyKinds lists them for consumers that
// pre-resolve per-kind state (registry counters, dashboards).
const (
	KindWall      = "wall"
	KindImbalance = "imbalance"
	KindCommWait  = "comm_wait"
	KindHealth    = "health"
	KindModel     = "model"
	KindAbort     = "abort"
)

// AnomalyKinds enumerates every kind the detectors emit.
var AnomalyKinds = []string{KindWall, KindImbalance, KindCommWait, KindHealth, KindModel, KindAbort}

// Anomaly is one detector event. Hard anomalies are the ones worth
// failing a CI job over (an extreme spike, a health fail, an abort);
// the rest are warnings. Score is the severity ranking key: how many
// thresholds-worth the observation was (z-score for wall, ratio for
// the drift detectors), so reports can rank mixed kinds.
type Anomaly struct {
	Kind string `json:"kind"`
	// Phase distinguishes sub-signals of one kind (the model detector
	// emits "compute" and "comm" residuals).
	Phase string `json:"phase,omitempty"`
	Step  int    `json:"step"`
	TNs   int64  `json:"t_ns,omitempty"`
	// Value is the measured quantity, Threshold what it was judged
	// against (both in the detector's native unit).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold,omitempty"`
	Score     float64 `json:"score"`
	Hard      bool    `json:"hard,omitempty"`
	Msg       string  `json:"msg,omitempty"`
}

// anomalyLog is the bounded anomaly ring plus per-kind accounting.
type anomalyLog struct {
	buf      []Anomaly
	n        int64
	byKind   map[string]int64
	counters map[string]*obs.Counter
}

func (l *anomalyLog) init(reg *obs.Registry) {
	l.buf = make([]Anomaly, logSize)
	l.byKind = make(map[string]int64, len(AnomalyKinds))
	for _, k := range AnomalyKinds {
		l.byKind[k] = 0
	}
	if reg != nil {
		l.counters = make(map[string]*obs.Counter, len(AnomalyKinds))
		for _, k := range AnomalyKinds {
			l.counters[k] = reg.Counter("anomaly." + k + ".total")
		}
	}
}

// detectors holds all online detector state: a fixed set of scalars,
// so running them per completed step costs no allocation.
type detectors struct {
	completed int64

	wallMean float64
	wallDev  float64

	imbEwma   float64
	imbStreak int

	cwFast   float64
	cwSlow   float64
	cwSeeded bool

	hOK, hWarn, hFail int64
	hStreak           int

	compEwma, commEwma     float64
	modSeeded              bool
	compStreak, commStreak int

	lastFire map[string]int
}

func (d *detectors) init() {
	d.lastFire = make(map[string]int, len(AnomalyKinds))
	for _, k := range AnomalyKinds {
		d.lastFire[k] = -1 << 30
	}
}

// cooled reports (and records) whether a kind may fire at step —
// at most one anomaly per kind per cooldownSteps window.
func (d *detectors) cooled(kind string, step int) bool {
	if step-d.lastFire[kind] < cooldownSteps {
		return false
	}
	d.lastFire[kind] = step
	return true
}

// step runs every detector over one completed step. Caller holds
// r.mu.
func (d *detectors) step(r *Recorder, acc *stepAcc) {
	d.completed++
	warm := d.completed > warmupSteps
	x := acc.wallMax

	// Wall-time spike: robust z-score against EWMA mean / EWMA
	// absolute deviation. Score first, then let the sample update the
	// running statistics — a single spike must not drag the baseline
	// up before it is judged.
	if !warm {
		n := float64(d.completed)
		d.wallMean += (x - d.wallMean) / n
		d.wallDev += (math.Abs(x-d.wallMean) - d.wallDev) / n
	} else {
		sigma := 1.4826 * d.wallDev
		if floor := 0.05 * d.wallMean; sigma < floor {
			sigma = floor
		}
		if sigma > 0 {
			z := (x - d.wallMean) / sigma
			if z >= wallZWarn && d.cooled(KindWall, acc.step) {
				r.emit(Anomaly{
					Kind: KindWall, Step: acc.step, TNs: acc.tNs,
					Value: x, Threshold: d.wallMean + wallZWarn*sigma,
					Score: z, Hard: z >= wallZHard,
				})
			}
		}
		const a = 0.05
		d.wallMean += a * (x - d.wallMean)
		d.wallDev += a * (math.Abs(x-d.wallMean) - d.wallDev)
	}

	// Imbalance drift: EWMA of per-step max/mean wall over ranks.
	if acc.n > 1 {
		imb := acc.wallMax / (acc.wallSum / float64(acc.n))
		if d.imbEwma == 0 {
			d.imbEwma = imb
		}
		const a = 0.1
		d.imbEwma += a * (imb - d.imbEwma)
		if warm && d.imbEwma >= imbalanceWarn {
			d.imbStreak++
		} else {
			d.imbStreak = 0
		}
		if d.imbStreak >= imbalanceSteps {
			d.imbStreak = 0
			if d.cooled(KindImbalance, acc.step) {
				r.emit(Anomaly{
					Kind: KindImbalance, Step: acc.step, TNs: acc.tNs,
					Value: d.imbEwma, Threshold: imbalanceWarn,
					Score: d.imbEwma / imbalanceWarn,
				})
			}
		}
	}

	// Comm-wait growth: fast vs slow EWMA of the receive-wait
	// fraction.
	if acc.wallSum > 0 {
		frac := acc.commWaitNs / acc.wallSum
		if !d.cwSeeded {
			d.cwFast, d.cwSlow, d.cwSeeded = frac, frac, true
		}
		d.cwFast += 0.1 * (frac - d.cwFast)
		d.cwSlow += 0.01 * (frac - d.cwSlow)
		if warm && d.cwFast >= commWaitFloor && d.cwSlow > 0 &&
			d.cwFast >= commWaitRatio*d.cwSlow && d.cooled(KindCommWait, acc.step) {
			r.emit(Anomaly{
				Kind: KindCommWait, Step: acc.step, TNs: acc.tNs,
				Value: d.cwFast, Threshold: commWaitRatio * d.cwSlow,
				Score: d.cwFast / (commWaitRatio * d.cwSlow),
			})
		}
	}

	// Health: new fail observations are hard anomalies immediately; a
	// streak of sampled observations producing new warns is a soft
	// one. Steps without new observations (the monitor samples every
	// Nth step) leave the streak untouched.
	if r.cfg.Health != nil {
		ok, warnC, fail := r.cfg.Health.Totals()
		if fail > d.hFail && d.cooled(KindHealth, acc.step) {
			r.emit(Anomaly{
				Kind: KindHealth, Step: acc.step, TNs: acc.tNs,
				Value: float64(fail), Score: 100, Hard: true,
			})
		}
		if warnC > d.hWarn {
			d.hStreak++
		} else if ok+warnC+fail > d.hOK+d.hWarn+d.hFail {
			d.hStreak = 0
		}
		if d.hStreak >= warnStreak {
			d.hStreak = 0
			if d.cooled(KindHealth, acc.step) {
				r.emit(Anomaly{
					Kind: KindHealth, Step: acc.step, TNs: acc.tNs,
					Value: float64(warnC), Threshold: warnStreak,
					Score: warnStreak,
				})
			}
		}
		d.hOK, d.hWarn, d.hFail = ok, warnC, fail
	}

	// Model residual: measured max-over-ranks compute/comm EWMAs vs
	// the armed prediction, fired only after the band has been
	// violated for modelSteps consecutive steps.
	if r.hasPred {
		if !d.modSeeded {
			d.compEwma, d.commEwma, d.modSeeded = acc.computeMax, acc.commMax, true
		}
		const a = 0.1
		d.compEwma += a * (acc.computeMax - d.compEwma)
		d.commEwma += a * (acc.commMax - d.commEwma)
		if warm {
			d.compStreak = d.residual(r, acc, "compute", d.compEwma, r.pred.ComputeNs, d.compStreak)
			d.commStreak = d.residual(r, acc, "comm", d.commEwma, r.pred.CommNs, d.commStreak)
		}
	}
}

// residual advances one model-residual streak and fires when it
// crosses the configured persistence, returning the updated streak.
func (d *detectors) residual(r *Recorder, acc *stepAcc, phase string, measured, predicted float64, streak int) int {
	if predicted <= 0 || measured <= 0 {
		return 0
	}
	ratio := measured / predicted
	score := ratio
	if score < 1 {
		score = 1 / score
	}
	if score < modelBand {
		return 0
	}
	streak++
	if streak < modelSteps {
		return streak
	}
	if d.cooled(KindModel, acc.step) {
		r.emit(Anomaly{
			Kind: KindModel, Phase: phase, Step: acc.step, TNs: acc.tNs,
			Value: ratio, Threshold: modelBand, Score: score / modelBand,
		})
	}
	return 0
}

// emit appends an anomaly to the bounded log, bumps its registry
// counter, and publishes it as an "anomaly" event on the tee. Caller
// holds r.mu. The JSON encoding only happens when a live subscriber
// is attached — the fire itself is allocation-free otherwise.
func (r *Recorder) emit(a Anomaly) {
	r.log.buf[r.log.n%int64(len(r.log.buf))] = a
	r.log.n++
	r.log.byKind[a.Kind]++
	if c := r.log.counters[a.Kind]; c != nil {
		c.Add(1)
	}
	if r.cfg.Tee.Active() {
		if line, err := json.Marshal(struct {
			Anomaly Anomaly `json:"anomaly"`
		}{a}); err == nil {
			r.cfg.Tee.PublishEvent("anomaly", append(line, '\n'))
		}
	}
}

// RecordAbort logs the run's terminal failure as a hard "abort"
// anomaly — called by the postmortem path before the bundle is
// written, so offline analysis of a crashed run always has at least
// the crash itself, even when no detector fired beforehand. A step of
// -1 means the failing step is unknown (e.g. a signal).
func (r *Recorder) RecordAbort(step int, msg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emit(Anomaly{Kind: KindAbort, Step: step, Value: 1, Score: 1000, Hard: true, Msg: msg})
}

// AnomalySnapshot is the /anomalies body.
type AnomalySnapshot struct {
	Total  int64            `json:"total"`
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	Last   *Anomaly         `json:"last,omitempty"`
	// Anomalies is the retained ring, oldest first (the ring is
	// bounded, so a long-sick run keeps the newest).
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// Anomalies snapshots the anomaly log.
func (r *Recorder) Anomalies() AnomalySnapshot {
	if r == nil {
		return AnomalySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := AnomalySnapshot{Total: r.log.n}
	for k, n := range r.log.byKind {
		if n > 0 {
			if snap.ByKind == nil {
				snap.ByKind = make(map[string]int64)
			}
			snap.ByKind[k] = n
		}
	}
	if r.log.n > 0 {
		n := int64(len(r.log.buf))
		start := int64(0)
		if r.log.n > n {
			start = r.log.n - n
		}
		for i := start; i < r.log.n; i++ {
			snap.Anomalies = append(snap.Anomalies, r.log.buf[i%n])
		}
		last := snap.Anomalies[len(snap.Anomalies)-1]
		snap.Last = &last
	}
	return snap
}
