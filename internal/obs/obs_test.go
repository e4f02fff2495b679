package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if got := r.Counter("hits_total"); got != c {
		t.Error("re-registering the same name must return the same counter")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1.5)
	r.Histogram("c").Observe(7)
	if names := r.Names(); names != nil {
		t.Errorf("nil registry has names %v", names)
	}
	d := r.Snapshot()
	if len(d.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", d)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds %v counts %v", bounds, counts)
	}
	// 0.5 and 1 land in <=1; 5 in <=10; 50 in <=100; 500 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Errorf("count %d sum %g", h.Count(), h.Sum())
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("workers")
	g.Set(4)
	if g.Value() != 4 {
		t.Errorf("gauge = %g", g.Value())
	}
}

// fakeClock advances a fixed step per call, making span timestamps
// deterministic for the golden files.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * 100 * time.Microsecond)
		n++
		return t
	}
}

// checkGolden compares got against the named testdata file; set
// OBS_UPDATE_GOLDEN=1 to rewrite.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("OBS_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with OBS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch for %s\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	ct := &ChromeTrace{}
	tr := NewTracerWithClock(ct, fakeClock())

	analysis := tr.Begin("analysis", 0).Arg("mode", "Iterative")
	pass := tr.Begin("pass", 0).Arg("pass", 1)
	level := tr.Begin("level", 0).Arg("cells", 12)
	w1 := tr.Begin("worker", 1)
	w1.Arg("cells", 7).End()
	level.End()
	pass.End()
	tr.Instant("longest-path", 0, map[string]any{"ns": 3.25})
	analysis.End()

	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace_golden.json", buf.Bytes())

	// The dump must round-trip as valid trace_event JSON.
	var parsed struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("want 5 events, got %d", len(parsed.TraceEvents))
	}
	checkNesting(t, parsed.TraceEvents)
}

// checkNesting asserts that complete ("X") events nest properly per
// tid: for any two spans on one tid, they are either disjoint or one
// contains the other. Shared with the end-to-end tests.
func checkNesting(t *testing.T, events []TraceEvent) {
	t.Helper()
	byTID := map[int][]TraceEvent{}
	for _, ev := range events {
		if ev.Phase == "X" {
			byTID[ev.TID] = append(byTID[ev.TID], ev)
		}
	}
	const eps = 1e-9
	for tid, evs := range byTID {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				aEnd, bEnd := a.TS+a.Dur, b.TS+b.Dur
				disjoint := aEnd <= b.TS+eps || bEnd <= a.TS+eps
				aInB := a.TS >= b.TS-eps && aEnd <= bEnd+eps
				bInA := b.TS >= a.TS-eps && bEnd <= aEnd+eps
				if !disjoint && !aInB && !bInA {
					t.Errorf("tid %d: spans %q [%g,%g] and %q [%g,%g] overlap without nesting",
						tid, a.Name, a.TS, aEnd, b.Name, b.TS, bEnd)
				}
			}
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", 0)
	sp.Arg("k", 1).End()
	tr.Instant("y", 0, nil)
	// A tracer with a nil sink is equally inert.
	tr2 := NewTracer(nil)
	tr2.Begin("x", 0).End()
}

func TestMetricsDumpGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("arc_evaluations_total").Add(1234)
	r.Counter("coupling_active_total").Add(56)
	r.Gauge("workers").Set(4)
	h := r.Histogram("sched_ready_queue_depth")
	h.Observe(3)
	h.Observe(40)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_dump_golden.json", buf.Bytes())

	// Every registered metric appears exactly once in the dump.
	var dump Dump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	seen := map[string]int{}
	for name := range dump.Counters {
		seen[name]++
	}
	for name := range dump.Gauges {
		seen[name]++
	}
	for name := range dump.Histograms {
		seen[name]++
	}
	for _, name := range r.Names() {
		if seen[name] != 1 {
			t.Errorf("metric %q appears %d times in the dump, want exactly once", name, seen[name])
		}
	}
	if len(seen) != len(r.Names()) {
		t.Errorf("dump has %d metrics, registry has %d", len(seen), len(r.Names()))
	}
}
