// Tests of the live introspection plane: metric-name drift against the
// canonical vocabulary, the embedded HTTP server under concurrent
// Analyze/Edit traffic, per-path timing attribution exactness, and the
// zero-overhead contract when no telemetry is attached.
package xtalksta

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/incremental"
	"xtalksta/internal/obs"
	"xtalksta/internal/obs/httpserve"
	"xtalksta/internal/report"
)

// driftDesign runs a small but full flow — layout, analysis in two
// modes, an ECO re-analysis, an event log and a scrape — against one
// registry, so the registry ends up holding every name the runtime
// actually touches.
func driftDesign(t *testing.T, reg *MetricsRegistry) {
	t.Helper()
	bopts := Defaults()
	bopts.Layout.Metrics = reg
	bopts.Calc.Metrics = reg
	d, err := Generate(circuitgen.Params{Seed: 41, Cells: 140, DFFs: 12, Depth: 6, ClockFanout: 4}, bopts)
	if err != nil {
		t.Fatal(err)
	}
	events := NewEventLog(io.Discard)
	events.AttachCounter(reg.Counter(obs.MEventsEmitted))
	opts := AnalysisOptions{Mode: Iterative, Metrics: reg, Events: events, Attribution: true}
	res, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Analyze(AnalysisOptions{Mode: WorstCase, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	batch := incremental.RandomBatch(d.Circuit, rng, 3)
	if len(batch) > 0 {
		if _, err := d.Reanalyze(res, batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.GoldenPath(res.Path, GoldenConfig{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AnalyzeNoise(); err != nil {
		t.Fatal(err)
	}
	// The HTTP layer registers its own route counter on first use.
	srv := httpserve.New(reg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestMetricNameDrift pins the runtime's metric vocabulary to names.go
// in both directions: every name a real flow registers must be declared
// in AllMetrics, and every declared name must be registerable. A
// failure means a producer invented an undeclared name (or a constant
// went dead) — update names.go, never the producer alone.
func TestMetricNameDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow drift scan in -short mode")
	}
	reg := NewMetricsRegistry()
	driftDesign(t, reg)

	declared := map[string]obs.MetricDef{}
	for _, def := range obs.AllMetrics() {
		declared[def.Name] = def
	}
	for _, name := range reg.Names() {
		if _, ok := declared[name]; !ok {
			t.Errorf("runtime registered %q, which is not in obs.AllMetrics — vocabulary drift", name)
		}
	}

	// Reverse direction: RegisterAll over the same registry must not
	// introduce any name the vocabulary does not declare, and afterwards
	// the registry must cover the vocabulary completely.
	obs.RegisterAll(reg)
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for name := range declared {
		if !names[name] {
			t.Errorf("declared metric %q never registers — dead vocabulary entry", name)
		}
	}
}

// TestIntrospectionServerLive scrapes the HTTP plane while analyses and
// edits run concurrently: /metrics must stay parseable, the snapshot
// valid JSON, and the sessions view must report the design's session
// peak. Run under -race in CI, this doubles as the server's thread-
// safety test.
func TestIntrospectionServerLive(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent end-to-end scrape in -short mode")
	}
	reg := NewMetricsRegistry()
	d, err := Generate(circuitgen.Params{Seed: 42, Cells: 120, DFFs: 10, Depth: 5, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := httpserve.New(reg)
	srv.SetSessions(func() any { return d.Sessions() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := d.Analyze(AnalysisOptions{Mode: Modes()[(g+i)%len(Modes())], Metrics: reg}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 3; i++ {
			if batch := incremental.RandomBatch(d.Circuit, rng, 2); len(batch) > 0 {
				if err := d.Edit(batch...); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, path := range []string{"/metrics", "/debug/obs/snapshot", "/debug/obs/sessions"} {
				resp, err := http.Get(base + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d err %v", path, resp.StatusCode, err)
					return
				}
				switch path {
				case "/metrics":
					if err := checkPromText(body); err != nil {
						errs <- err
						return
					}
				default:
					var v any
					if err := json.Unmarshal(body, &v); err != nil {
						errs <- fmt.Errorf("%s: invalid JSON: %v", path, err)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	info := d.Sessions()
	if info.PeakSessions < 1 {
		t.Errorf("session peak %d, want >= 1", info.PeakSessions)
	}
	if info.Revision == 0 {
		t.Error("edits applied but revision still 0")
	}
	resp, err := http.Get(base + "/debug/obs/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.PeakSessions < 1 || got.SnapshotBuilds < 1 {
		t.Errorf("sessions endpoint: %+v", got)
	}
}

// checkPromText validates every sample line of a Prometheus text
// exposition: name[{labels}] value, value numeric.
func checkPromText(body []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("non-numeric value in %q", line)
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("empty exposition")
	}
	return sc.Err()
}

// TestAttributionExactAllModes checks the attribution contract in every
// mode: the top path's total is bit-identical to the reported longest
// path, and re-accumulating each path's per-arc contributions in the
// engine's operation order reproduces the path total bit-exactly.
func TestAttributionExactAllModes(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 43, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		res, err := d.Analyze(AnalysisOptions{Mode: m, Attribution: true})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		a := res.Attribution
		if a == nil || len(a.Paths) == 0 {
			t.Fatalf("%s: no attribution", m)
		}
		if len(a.Paths) > 10 {
			t.Fatalf("%s: %d paths, want <= default top-10", m, len(a.Paths))
		}
		if got, want := math.Float64bits(a.Paths[0].Total), math.Float64bits(res.LongestPath); got != want {
			t.Errorf("%s: Paths[0].Total %.17g != LongestPath %.17g", m, a.Paths[0].Total, res.LongestPath)
		}
		for pi, p := range a.Paths {
			if !p.Exact {
				t.Errorf("%s path %d: not exact on a fresh full analysis", m, pi)
			}
			total := p.Launch
			for _, s := range p.Steps[1:] {
				total = (total + s.Wire) + s.Gate
			}
			total += p.EndpointExtra
			if math.Float64bits(total) != math.Float64bits(p.Total) {
				t.Errorf("%s path %d: re-accumulated %.17g != Total %.17g", m, pi, total, p.Total)
			}
			if len(p.Steps) == 0 || p.Steps[0].Cell != "" {
				t.Errorf("%s path %d: first step is not a launch point", m, pi)
			}
			// Arrivals must be monotonically non-decreasing along the path.
			for i := 1; i < len(p.Steps); i++ {
				if p.Steps[i].Arrival < p.Steps[i-1].Arrival {
					t.Errorf("%s path %d: arrival decreases at step %d", m, pi, i)
				}
			}
		}
		// Coupling-blind analysis must attribute zero coupling slowdown.
		if m == BestCase {
			for _, p := range a.Paths {
				for _, s := range p.Steps {
					if s.CouplingSlowdown != 0 || len(s.Aggressors) > 0 {
						t.Errorf("BestCase attributes coupling: %+v", s)
					}
				}
			}
		}
		// Paths must be sorted worst-first.
		for i := 1; i < len(a.Paths); i++ {
			if a.Paths[i].Total > a.Paths[i-1].Total {
				t.Errorf("%s: paths not sorted worst-first at %d", m, i)
			}
		}
	}
}

// TestAttributionRendersAndReanalyze covers the report renderers and
// attribution on the ECO path: a seeded re-analysis with attribution
// enabled must attribute the same longest path a from-scratch run
// reports, and the renderers must not choke on it.
func TestAttributionRendersAndReanalyze(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 44, Cells: 130, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalysisOptions{Mode: Iterative, Attribution: true, AttributionTopK: 3}
	res, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attribution.Paths) > 3 {
		t.Fatalf("topk=3 returned %d paths", len(res.Attribution.Paths))
	}
	rng := rand.New(rand.NewSource(5))
	batch := incremental.RandomBatch(d.Circuit, rng, 3)
	if len(batch) == 0 {
		t.Skip("random batch produced no edits")
	}
	inc, err := d.Reanalyze(res, batch)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Attribution == nil || len(inc.Attribution.Paths) == 0 {
		t.Fatal("no attribution on the incremental result")
	}
	if got, want := math.Float64bits(inc.Attribution.Paths[0].Total), math.Float64bits(inc.LongestPath); got != want {
		t.Errorf("incremental attribution top path %.17g != longest %.17g",
			inc.Attribution.Paths[0].Total, inc.LongestPath)
	}

	ra := report.BuildAttribution(inc.Attribution)
	var text strings.Builder
	if err := ra.Render(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "timing attribution") ||
		!strings.Contains(text.String(), inc.Endpoint.Net) {
		t.Errorf("render output missing expected content:\n%s", text.String())
	}
	var jbuf strings.Builder
	if err := ra.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var parsed report.Attribution
	if err := json.Unmarshal([]byte(jbuf.String()), &parsed); err != nil {
		t.Fatalf("attribution JSON does not parse: %v", err)
	}
	if parsed.Mode != inc.Mode.String() || len(parsed.Paths) != len(inc.Attribution.Paths) {
		t.Errorf("JSON round-trip lost content: %+v", parsed)
	}
}

// TestAnalyzeRejectsNegativeAttributionTopK: a negative top-K reaches
// the engine through the facade and must come back as an error naming
// the option, not a slice-bounds panic in the attribution build.
func TestAnalyzeRejectsNegativeAttributionTopK(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 45, Cells: 100, DFFs: 8, Depth: 5, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, math.MinInt} {
		res, err := d.Analyze(AnalysisOptions{Mode: Iterative, Attribution: true, AttributionTopK: k})
		if err == nil || !strings.Contains(err.Error(), "AttributionTopK") {
			t.Errorf("AttributionTopK %d: got result %v, error %v; want an error naming AttributionTopK", k, res != nil, err)
		}
	}
}

// TestObservabilityZeroOverheadBitIdentical is the opt-out contract:
// attaching the full introspection plane (registry, events,
// attribution) must not move a single bit of the analysis results
// relative to a bare run.
func TestObservabilityZeroOverheadBitIdentical(t *testing.T) {
	params := circuitgen.Params{Seed: 45, Cells: 130, DFFs: 10, Depth: 6, ClockFanout: 4}
	run := func(instrumented bool) *AnalysisResult {
		bopts := Defaults()
		opts := AnalysisOptions{Mode: Iterative}
		var d *Design
		var err error
		if instrumented {
			reg := NewMetricsRegistry()
			bopts.Layout.Metrics = reg
			bopts.Calc.Metrics = reg
			f, err := os.Create(filepath.Join(t.TempDir(), "events.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			opts.Metrics = reg
			opts.Events = NewEventLog(f)
			opts.Attribution = true
		}
		d, err = Generate(params, bopts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Analyze(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare, full := run(false), run(true)
	if math.Float64bits(bare.LongestPath) != math.Float64bits(full.LongestPath) {
		t.Fatalf("instrumentation moved the longest path: %.17g != %.17g", full.LongestPath, bare.LongestPath)
	}
	if bare.Passes != full.Passes {
		t.Fatalf("instrumentation changed pass count: %d != %d", full.Passes, bare.Passes)
	}
	if bare.ArcEvaluations != full.ArcEvaluations || bare.Simulations != full.Simulations {
		t.Fatalf("instrumentation changed work counters: %d/%d != %d/%d",
			full.ArcEvaluations, full.Simulations, bare.ArcEvaluations, bare.Simulations)
	}
	if bare.Attribution != nil {
		t.Fatal("bare run grew an attribution")
	}
	// Full final state must match too.
	if bare.Replay != nil && full.Replay != nil {
		fa, ba := full.Replay.FinalArrivals(), bare.Replay.FinalArrivals()
		for i := range ba {
			for dir := 0; dir < 2; dir++ {
				if math.Float64bits(fa[i][dir]) != math.Float64bits(ba[i][dir]) {
					t.Fatalf("net %d dir %d arrival differs under instrumentation", i+1, dir)
				}
			}
		}
	}
}
