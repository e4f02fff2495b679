package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A *Vec is a family of instruments keyed by a
// small, bounded set of label values (mode, corner, revision, pass —
// never per-net identities; see DESIGN.md §12 for the cardinality
// rules). With resolves one child instrument, creating it on first use;
// children are live forever once created, so a hot loop should resolve
// once and hold the child. All Vec methods are safe for concurrent use
// and nil-receiver safe, mirroring the plain registry accessors.

// labelKey joins label values into a map key. 0x1f (unit separator)
// cannot appear in our bounded label vocabularies.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// normalize pads or truncates values to the family's label arity so a
// miscounted With call degrades to an empty label instead of panicking.
func normalize(keys, values []string) []string {
	if len(values) == len(keys) {
		return values
	}
	out := make([]string, len(keys))
	copy(out, values)
	return out
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	keys []string
	mu   sync.RWMutex
	m    map[string]*Counter
	vals map[string][]string
}

// With returns the child counter for the given label values (one per
// key, in key order), creating it on first use. Nil-receiver safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return &Counter{}
	}
	values = normalize(v.keys, values)
	k := labelKey(values)
	v.mu.RLock()
	c := v.m[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[k]; c != nil {
		return c
	}
	if v.m == nil {
		v.m = make(map[string]*Counter)
		v.vals = make(map[string][]string)
	}
	c = &Counter{}
	v.m[k] = c
	v.vals[k] = append([]string(nil), values...)
	return c
}

// HistogramVec is a family of histograms keyed by label values, all
// sharing one bucket grid.
type HistogramVec struct {
	keys   []string
	bounds []float64
	mu     sync.RWMutex
	m      map[string]*Histogram
	vals   map[string][]string
}

// With returns the child histogram for the given label values, creating
// it on first use. Nil-receiver safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return NewHistogram(defaultHistBounds)
	}
	values = normalize(v.keys, values)
	k := labelKey(values)
	v.mu.RLock()
	h := v.m[k]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.m[k]; h != nil {
		return h
	}
	if v.m == nil {
		v.m = make(map[string]*Histogram)
		v.vals = make(map[string][]string)
	}
	h = NewHistogram(v.bounds)
	v.m[k] = h
	v.vals[k] = append([]string(nil), values...)
	return h
}

// CounterVec returns the counter family registered under name, creating
// it with the given label keys on first use. On a nil registry it
// returns an unregistered family.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return &CounterVec{keys: keys}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cvecs == nil {
		r.cvecs = make(map[string]*CounterVec)
	}
	v, ok := r.cvecs[name]
	if !ok {
		v = &CounterVec{keys: append([]string(nil), keys...)}
		r.cvecs[name] = v
	}
	return v
}

// HistogramVec returns the histogram family registered under name,
// creating it with the given bucket bounds (nil = the default 1-2-5
// grid) and label keys on first use. On a nil registry it returns an
// unregistered family.
func (r *Registry) HistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	if r == nil {
		return &HistogramVec{keys: keys, bounds: boundsOrDefault(bounds)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hvecs == nil {
		r.hvecs = make(map[string]*HistogramVec)
	}
	v, ok := r.hvecs[name]
	if !ok {
		v = &HistogramVec{keys: append([]string(nil), keys...), bounds: boundsOrDefault(bounds)}
		r.hvecs[name] = v
	}
	return v
}

func boundsOrDefault(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return defaultHistBounds
	}
	return bounds
}

// Series is one instrument of a gathered family: its label values (in
// the family's key order) and either a scalar value or a histogram
// dump.
type Series struct {
	Labels []string       `json:"labels,omitempty"`
	Value  float64        `json:"value"`
	Hist   *HistogramDump `json:"hist,omitempty"`
}

// Family is the gathered view of one metric: unlabeled instruments are
// families with no keys and exactly one series.
type Family struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // "counter", "gauge" or "histogram"
	Keys   []string `json:"keys,omitempty"`
	Series []Series `json:"series"`
}

// Gather returns a point-in-time copy of every registered metric as
// sorted families: by name, and within a family by label tuple. The
// ordering is total and deterministic, so two identical registries
// gather (and serialize) identically.
func (r *Registry) Gather() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var fams []Family
	for name, c := range r.counts {
		fams = append(fams, Family{Name: name, Kind: "counter",
			Series: []Series{{Value: float64(c.Value())}}})
	}
	for name, g := range r.gauges {
		fams = append(fams, Family{Name: name, Kind: "gauge",
			Series: []Series{{Value: g.Value()}}})
	}
	for name, h := range r.hists {
		d := h.Dump()
		fams = append(fams, Family{Name: name, Kind: "histogram",
			Series: []Series{{Hist: &d}}})
	}
	for name, v := range r.cvecs {
		f := Family{Name: name, Kind: "counter", Keys: append([]string(nil), v.keys...)}
		v.mu.RLock()
		for k, c := range v.m {
			f.Series = append(f.Series, Series{
				Labels: append([]string(nil), v.vals[k]...), Value: float64(c.Value())})
		}
		v.mu.RUnlock()
		fams = append(fams, f)
	}
	for name, v := range r.hvecs {
		f := Family{Name: name, Kind: "histogram", Keys: append([]string(nil), v.keys...)}
		v.mu.RLock()
		for k, h := range v.m {
			d := h.Dump()
			f.Series = append(f.Series, Series{
				Labels: append([]string(nil), v.vals[k]...), Hist: &d})
		}
		v.mu.RUnlock()
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for i := range fams {
		s := fams[i].Series
		sort.Slice(s, func(a, b int) bool {
			return labelKey(s[a].Labels) < labelKey(s[b].Labels)
		})
	}
	return fams
}
