package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable float64 metric. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observation v lands in the
// first bucket whose upper bound is ≥ v, or the overflow bucket past
// the last bound. Buckets are fixed at construction, so Observe is a
// lock-free linear scan over a handful of bounds plus two atomic adds.
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Uppers holds the bucket upper bounds; Counts has one extra
	// trailing entry for observations above the last bound.
	Uppers []float64 `json:"uppers"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation inside the bucket the quantile rank
// lands in (the first bucket interpolates from 0, matching the
// latency-style layouts ExpBuckets produces). Observations in the
// overflow bucket clamp to the last finite bound — the histogram
// carries no upper limit for them. Returns 0 when empty.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := float64(0)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i >= len(h.Uppers) {
				return h.Uppers[len(h.Uppers)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Uppers[i-1]
			}
			return lo + (h.Uppers[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Uppers[len(h.Uppers)-1]
}

// Quantiles returns the conventional p50/p90/p99 summary of the
// snapshot — the tail view /metrics and the bench validation tables
// surface next to the mean.
func (h HistSnapshot) Quantiles() (p50, p90, p99 float64) {
	return h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// first with the given growth factor — the standard latency-style
// bucket layout.
func ExpBuckets(first, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := first
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of counters, gauges, and histograms —
// the single snapshot surface that absorbs the stack's ad-hoc counters
// (parmd RankStats, comm per-class traffic, receive-wait time).
// Metric handles are created on first use and stable thereafter;
// lookups take a mutex, so callers hold handles across hot loops
// rather than re-resolving names.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (later calls keep the original
// buckets).
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		u := append([]float64(nil), uppers...)
		sort.Float64s(u)
		h = &Histogram{uppers: u, counts: make([]atomic.Int64, len(u)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value. It is safe to call
// concurrently with metric updates (values are read atomically,
// per-metric).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Uppers: append([]float64(nil), h.uppers...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
