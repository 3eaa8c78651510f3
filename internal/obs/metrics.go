package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a get-or-create store of named counters, gauges,
// histograms, and indexed instrument vectors. Components resolve their
// instruments once at setup and hold the pointers, so the hot path is a
// plain atomic operation — the registry map is never touched per event.
// All methods are safe for concurrent use, and safe on a nil *Registry:
// instrument getters then return detached instruments, so callers can
// thread an optional registry without guards.
//
// Names are validated at creation against the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*, and a name is pinned to the first
// instrument kind it was created as; violations panic with an
// obs-prefixed message. The exposition endpoint (internal/obs/serve)
// renders registries verbatim, so these invariants are what guarantee
// /metrics can never emit an unscrapeable page.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cvecs    map[string]*CounterVec
	gvecs    map[string]*GaugeVec
	kinds    map[string]string // name -> instrument kind, for collision detection
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		cvecs:    make(map[string]*CounterVec),
		gvecs:    make(map[string]*GaugeVec),
		kinds:    make(map[string]string),
	}
}

// validMetricName reports whether name matches the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if len(name) == 0 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || c == ':',
			c >= 'a' && c <= 'z',
			c >= 'A' && c <= 'Z',
			i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches the Prometheus
// label-name charset [a-zA-Z_][a-zA-Z0-9_]* (no colons).
func validLabelName(name string) bool {
	if len(name) == 0 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_',
			c >= 'a' && c <= 'z',
			c >= 'A' && c <= 'Z',
			i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return true
}

// checkName validates the metric name and pins it to one instrument
// kind; the caller holds r.mu. Panics (obs-prefixed, like gluon's
// malformed-input convention) on a bad name or cross-kind reuse —
// either would corrupt the text exposition.
func (r *Registry) checkName(name, kind string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-zA-Z_:][a-zA-Z0-9_:]*)", name))
	}
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, cannot reuse as a %s", name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use. On a
// nil registry it returns a detached counter (usable, never reported).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bounds (ascending; an implicit +Inf bucket is appended) on
// first use. Later calls ignore the bounds argument. On a nil registry
// it returns a detached histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named counter vector with at least n indexed
// counters, creating or growing it as needed (a vector shared across
// cluster sizes keeps its earlier entries: counter pointers stay valid
// across growth). The label names the index dimension in the text
// exposition (name{label="i"}). On a nil registry it returns a
// detached vector.
func (r *Registry) CounterVec(name, label string, n int) *CounterVec {
	if r == nil {
		return newVec[Counter](label, n)
	}
	return vecOf(r, r.cvecs, "counter vector", name, label, n)
}

// GaugeVec returns the named gauge vector with at least n indexed
// gauges, creating or growing it as needed. On a nil registry it
// returns a detached vector.
func (r *Registry) GaugeVec(name, label string, n int) *GaugeVec {
	if r == nil {
		return newVec[Gauge](label, n)
	}
	return vecOf(r, r.gvecs, "gauge vector", name, label, n)
}

// vecOf returns vecs[name] with at least n entries, creating it under
// r's lock and naming rules.
func vecOf[T any, P vecElem[T]](r *Registry, vecs map[string]*Vec[T, P], kind, name, label string, n int) *Vec[T, P] {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, kind)
	v, ok := vecs[name]
	if !ok {
		v = newVec[T, P](label, n)
		vecs[name] = v
	} else {
		v.grow(n)
	}
	return v
}

// Vec is an indexed family of instruments reported as one metric with
// an integer-valued label: a CounterVec (e.g. per-host byte totals) or
// a GaugeVec (e.g. per-host last-completed round). At is for setup
// time — components resolve each index's instrument once and hold the
// pointer on the hot path.
type Vec[T any, P vecElem[T]] struct {
	mu    sync.Mutex
	label string
	vals  []P
}

// vecElem is what a Vec holds: a pointer to a Counter or a Gauge.
type vecElem[T any] interface {
	*T
	Load() int64
}

// CounterVec and GaugeVec are the two kinds of Vec a Registry makes.
type (
	CounterVec = Vec[Counter, *Counter]
	GaugeVec   = Vec[Gauge, *Gauge]
)

func newVec[T any, P vecElem[T]](label string, n int) *Vec[T, P] {
	if !validLabelName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q (want [a-zA-Z_][a-zA-Z0-9_]*)", label))
	}
	v := &Vec[T, P]{label: label}
	v.grow(n)
	return v
}

func (v *Vec[T, P]) grow(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.vals) < n {
		v.vals = append(v.vals, P(new(T)))
	}
}

// At returns the instrument at index i, growing the vector if needed.
func (v *Vec[T, P]) At(i int) P {
	v.grow(i + 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vals[i]
}

// Len returns the current vector length.
func (v *Vec[T, P]) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.vals)
}

// snapshotVecs copies every vector's values (nil when there are none).
func snapshotVecs[T any, P vecElem[T]](vecs map[string]*Vec[T, P]) map[string]VecSnapshot {
	if len(vecs) == 0 {
		return nil
	}
	out := make(map[string]VecSnapshot, len(vecs))
	for name, v := range vecs {
		v.mu.Lock()
		vs := VecSnapshot{Label: v.label, Values: make([]int64, len(v.vals))}
		for i, x := range v.vals {
			vs.Values[i] = x.Load()
		}
		v.mu.Unlock()
		out[name] = vs
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DurationBuckets are the default histogram bounds for phase
// durations, in seconds.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Histogram is a fixed-bucket histogram with atomic counts. Observe is
// lock-free and allocation-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a registry's instruments.
type Snapshot struct {
	Counters    map[string]int64             `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	CounterVecs map[string]VecSnapshot       `json:"counter_vecs,omitempty"`
	GaugeVecs   map[string]VecSnapshot       `json:"gauge_vecs,omitempty"`
}

// VecSnapshot is a point-in-time copy of one instrument vector: the
// value at each index, labeled Label="index" in the text exposition.
type VecSnapshot struct {
	Label  string  `json:"label"`
	Values []int64 `json:"values"`
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds; Counts has one extra +Inf bucket
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies every instrument's current value. Nil-safe.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.count.Load(),
				Sum:    math.Float64frombits(h.sum.Load()),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	s.CounterVecs = snapshotVecs(r.cvecs)
	s.GaugeVecs = snapshotVecs(r.gvecs)
	return s
}
