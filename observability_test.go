// End-to-end test of the telemetry layer: the acceptance scenario is
// the s35932 preset at scale 0.05 analyzed iteratively with a metrics
// registry and a Chrome trace attached — the library-level equivalent
// of `xtalksta -preset s35932 -scale 0.05 -mode iterative -metrics
// m.json -trace t.json`.
package xtalksta_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"xtalksta"
)

func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second preset build in -short mode")
	}
	reg := xtalksta.NewMetricsRegistry()
	chrome := &xtalksta.ChromeTrace{}
	tracer := xtalksta.NewTracer(chrome)

	bopts := xtalksta.Defaults()
	bopts.Layout.Metrics = reg
	bopts.Layout.Trace = tracer
	d, err := xtalksta.GeneratePreset(xtalksta.S35932, 0.05, bopts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Analyze(xtalksta.AnalysisOptions{
		Mode: xtalksta.Iterative, Workers: 4, Metrics: reg, Trace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LongestPath <= 0 {
		t.Fatal("no longest path")
	}

	// The metrics dump must round-trip through JSON and carry nonzero
	// work counters.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	for _, name := range []string{
		"arc_evaluations_total",
		"newton_iterations_total",
		"coupling_active_total",
		"layout_nets_routed_total",
		"passes_total",
	} {
		if dump.Counters[name] <= 0 {
			t.Errorf("metric %s = %d, want > 0", name, dump.Counters[name])
		}
	}
	checkRegistryTwins(t, "tier-0 off", dump.Counters, res)
	// With tier-0 on, on a registry of its own: the tier-0 counters
	// have Result twins too.
	reg0 := xtalksta.NewMetricsRegistry()
	res0, err := d.Analyze(xtalksta.AnalysisOptions{
		Mode: xtalksta.Iterative, Workers: 4, Tier0: true, Metrics: reg0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Tier0Rerun || res0.Tier0Hits == 0 {
		t.Fatalf("tier-0 run: rerun %v, %d hits; the twin check needs a tiered run whose brackets held",
			res0.Tier0Rerun, res0.Tier0Hits)
	}
	checkRegistryTwins(t, "tier-0 on", reg0.Snapshot().Counters, res0)

	// The trace must parse as Chrome trace_event JSON, contain the
	// expected span names, and nest properly per thread.
	buf.Reset()
	if err := chrome.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	seen := map[string]int{}
	for _, ev := range tf.TraceEvents {
		seen[ev.Name]++
	}
	// "wavefront" is the sweep executor's per-phase span.
	for _, name := range []string{"place", "route", "extract", "analysis", "pass", "wavefront"} {
		if seen[name] == 0 {
			t.Errorf("trace has no %q span", name)
		}
	}
	if seen["pass"] != res.Passes {
		t.Errorf("trace has %d pass spans, engine ran %d passes", seen["pass"], res.Passes)
	}

	// Nesting: per thread, any two complete spans must be disjoint or
	// strictly nested.
	byTID := map[int64][][2]float64{}
	for _, ev := range tf.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		byTID[ev.TID] = append(byTID[ev.TID], [2]float64{ev.TS, ev.TS + ev.Dur})
	}
	const eps = 1e-9
	for tid, spans := range byTID {
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if b[0] >= a[1]-eps {
					continue // disjoint
				}
				if b[1] <= a[1]+eps {
					continue // nested
				}
				t.Fatalf("tid %d: spans overlap without nesting: [%g,%g] vs [%g,%g]",
					tid, a[0], a[1], b[0], b[1])
			}
		}
	}
}

// checkRegistryTwins asserts that every engine work counter with a
// Result or PassStat twin reads the same as its twin, for a registry
// that saw exactly one analysis: a pass dropped or counted twice
// between the two shows here.
func checkRegistryTwins(t *testing.T, label string, counters map[string]int64, res *xtalksta.AnalysisResult) {
	t.Helper()
	var newton, recalc, converged int64
	for _, ps := range res.PassStats {
		newton += ps.NewtonIterations
		recalc += ps.RecalculatedWires
		converged += ps.ConvergedSkips
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"arc_evaluations_total", res.ArcEvaluations},
		{"simulations_total", res.Simulations},
		{"passes_total", int64(res.Passes)},
		{"tier0_hits_total", res.Tier0Hits},
		{"tier0_fallbacks_total", res.Tier0Fallbacks},
		{"tier0_flip_guards_total", res.Tier0FlipGuards},
		{"recalculated_wires_total", recalc},
		{"pass_converged_skips_total", converged},
		{"newton_iterations_total", newton},
	} {
		if got := counters[c.name]; got != c.want {
			t.Errorf("%s: %s = %d, its Result/PassStat twin %d", label, c.name, got, c.want)
		}
	}
}
