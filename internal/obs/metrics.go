package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Registry is a lightweight metrics registry: named counters, gauges
// and histograms. Instruments are cheap to update and never allocate
// (one atomic op for counters and gauges, a short mutexed section for
// histograms); name lookup is the expensive part, so hot paths acquire
// their handles once and hold them:
//
//	evals := reg.Counter("engine/evaluations")
//	evals.Inc()
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// histBuckets is the bucket count of Histogram: bucket 0 holds values
// < 1, bucket k holds [2^(k-1), 2^k), the last bucket holds the rest.
// 40 buckets cover ~5.5e11 — plenty for microsecond latencies.
const histBuckets = 40

// Histogram is a log2-bucketed distribution of non-negative values
// (typically latencies in microseconds) with exact count/sum/min/max
// and interpolated quantiles.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// Count returns the number of values observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of the values observed.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the interpolated q-quantile (q in [0,1]); 0 on an
// empty histogram. Within a bucket the distribution is assumed uniform
// over the bucket's range clipped to the observed [min, max].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for k, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			// No observation lies outside [min, max], so the bucket's
			// values spread over its range clipped to them.
			lo, hi := bucketBounds(k)
			lo, hi = max(lo, h.min), min(hi, h.max)
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return h.max
}

// bucketBounds returns bucket k's value range [lo, hi).
func bucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (k - 1)), float64(uint64(1) << k)
}

// HistogramStats is the snapshot of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// stats snapshots the histogram.
func (h *Histogram) stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// Snapshot is a point-in-time copy of every instrument, the form that
// lands in reports, -json output and the expvar endpoint. Maps marshal
// with sorted keys, so the JSON is deterministic.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.stats()
		}
	}
	return s
}
