// Package obs is the engine's zero-dependency telemetry layer: a
// race-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a span/event tracer with a pluggable sink, and a Chrome
// trace_event exporter so a full analysis run renders as a timeline in
// chrome://tracing.
//
// Every instrument is safe for concurrent use from the engine's level
// workers. All registry accessors are nil-receiver safe: calling
// Counter/Gauge/Histogram on a nil *Registry returns a live but
// unregistered instrument, so instrumented code pays one atomic
// operation per event and needs no nil checks on the hot path.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive
// upper edge of bucket i, with one implicit overflow bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given sorted upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the bucket upper bounds and the per-bucket counts
// (the final count is the overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// defaultHistBounds is the bucket grid used for registry-created
// histograms: 1-2-5 decades covering cell counts and microsecond-scale
// durations alike.
var defaultHistBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// DurationBounds is the bucket grid for wall-clock duration histograms,
// in seconds: a 1-2-5 progression from one microsecond to fifty
// seconds, covering sub-microsecond arc evaluations and multi-second
// full-chip analyses alike.
var DurationBounds = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2, 5, 10, 20, 50,
}

// Registry is a named collection of instruments. The zero value is
// ready to use; a nil *Registry hands out live, unregistered
// instruments (telemetry disabled at zero branching cost).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	cvecs  map[string]*CounterVec
	hvecs  map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it on
// first use. On a nil registry it returns an unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts == nil {
		r.counts = make(map[string]*Counter)
	}
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. On a nil registry it returns an unregistered gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the default 1-2-5 bucket grid on first use. On a nil registry it
// returns an unregistered histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram(defaultHistBounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(defaultHistBounds)
		r.hists[name] = h
	}
	return h
}

// HistogramWith returns the histogram registered under name, creating
// it with the given bucket bounds on first use (nil bounds = the
// default 1-2-5 grid). An already-registered histogram keeps its
// original bounds. On a nil registry it returns an unregistered
// histogram.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(boundsOrDefault(bounds))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(boundsOrDefault(bounds))
		r.hists[name] = h
	}
	return h
}

// HistogramDump is the JSON form of one histogram.
type HistogramDump struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Dump returns the histogram's point-in-time JSON form.
func (h *Histogram) Dump() HistogramDump {
	bounds, counts := h.Buckets()
	return HistogramDump{Bounds: bounds, Counts: counts, Count: h.Count(), Sum: h.Sum()}
}

// Dump is the JSON form of a registry snapshot. Labeled families are
// flattened into the same maps under `name{key="value",...}` keys with
// keys in the family's declared order, so a dump is a flat, sorted
// name→value view of the whole registry. Maps are nil when empty (no
// spurious `{}` entries), bucket bounds are sorted at histogram
// construction, and encoding/json emits map keys in sorted order — two
// snapshots of registries in the same state serialize byte-identically.
type Dump struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramDump `json:"histograms,omitempty"`
}

// seriesName renders a flattened map key for one series of a labeled
// family: `name{key="value",...}`, or just name for unlabeled series.
func seriesName(name string, keys, values []string) string {
	if len(keys) == 0 {
		return name
	}
	out := name + "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		out += k + `="` + v + `"`
	}
	return out + "}"
}

// Snapshot returns a point-in-time copy of every registered metric.
func (r *Registry) Snapshot() Dump {
	var d Dump
	if r == nil {
		return d
	}
	for _, f := range r.Gather() {
		switch f.Kind {
		case "counter":
			if d.Counters == nil {
				d.Counters = make(map[string]int64)
			}
			for _, s := range f.Series {
				d.Counters[seriesName(f.Name, f.Keys, s.Labels)] = int64(s.Value)
			}
		case "gauge":
			if d.Gauges == nil {
				d.Gauges = make(map[string]float64)
			}
			for _, s := range f.Series {
				d.Gauges[seriesName(f.Name, f.Keys, s.Labels)] = s.Value
			}
		case "histogram":
			if d.Histograms == nil {
				d.Histograms = make(map[string]HistogramDump)
			}
			for _, s := range f.Series {
				d.Histograms[seriesName(f.Name, f.Keys, s.Labels)] = *s.Hist
			}
		}
	}
	return d
}

// Names returns the sorted names of every registered metric.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name := range r.counts {
		out = append(out, name)
	}
	for name := range r.gauges {
		out = append(out, name)
	}
	for name := range r.hists {
		out = append(out, name)
	}
	for name := range r.cvecs {
		out = append(out, name)
	}
	for name := range r.hvecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
