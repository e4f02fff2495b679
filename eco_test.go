package xtalksta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/incremental"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// assertBitExact requires the incremental result to be bit-identical to
// the from-scratch one: longest path, pass count, and the full final
// per-line timing state (arrivals, slews, quiescent times).
func assertBitExact(t *testing.T, full, inc *AnalysisResult, ctx string) {
	t.Helper()
	if math.Float64bits(full.LongestPath) != math.Float64bits(inc.LongestPath) {
		t.Fatalf("%s: longest path %.17g != from-scratch %.17g", ctx, inc.LongestPath, full.LongestPath)
	}
	if full.Passes != inc.Passes {
		t.Fatalf("%s: passes %d != %d", ctx, inc.Passes, full.Passes)
	}
	if full.Replay == nil || inc.Replay == nil {
		t.Fatalf("%s: missing replay state", ctx)
	}
	kinds := []struct {
		name      string
		want, got [][2]float64
	}{
		{"arrival", full.Replay.FinalArrivals(), inc.Replay.FinalArrivals()},
		{"slew", full.Replay.FinalSlews(), inc.Replay.FinalSlews()},
		{"quiet", full.Replay.FinalQuiets(), inc.Replay.FinalQuiets()},
	}
	for _, k := range kinds {
		for i := range k.want {
			for d := 0; d < 2; d++ {
				if math.Float64bits(k.want[i][d]) != math.Float64bits(k.got[i][d]) {
					t.Fatalf("%s: net %d dir %d %s %.17g != %.17g",
						ctx, i+1, d, k.name, k.got[i][d], k.want[i][d])
				}
			}
		}
	}
}

// scratchAnalyze analyzes the design's current revision on a freshly
// compiled snapshot — never on the design's cached one, which Reanalyze
// derived from the previous revision's, so a wrong derived snapshot
// cannot hide on both sides of a comparison.
func scratchAnalyze(t *testing.T, d *Design, opts AnalysisOptions) *AnalysisResult {
	t.Helper()
	d.defaultPOCap(&opts)
	cd, err := core.Compile(d.circuit(), d.Calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReanalyzeExactnessProperty is the exactness property test of the
// incremental layer: on each paper preset, in all five modes, chained
// randomized edit batches re-analyzed incrementally must bit-match a
// from-scratch analysis of the edited design, compiled from scratch —
// while reusing stored lines.
func TestReanalyzeExactnessProperty(t *testing.T) {
	presets := []struct {
		preset Preset
		scale  float64
	}{
		{S35932, 0.015},
		{S38417, 0.012},
		{S38584, 0.012},
	}
	if testing.Short() {
		presets = presets[:1]
	}
	for _, pc := range presets {
		pc := pc
		t.Run(string(pc.preset), func(t *testing.T) {
			t.Parallel()
			d, err := GeneratePreset(pc.preset, pc.scale, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			var reused int64
			for _, m := range Modes() {
				opts := AnalysisOptions{Mode: m}
				res, err := d.Analyze(opts)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < 2; b++ {
					batch := incremental.RandomBatch(d.Circuit, rng, 3)
					if len(batch) == 0 {
						continue
					}
					inc, err := d.Reanalyze(res, batch)
					if err != nil {
						t.Fatalf("%s batch %d: %v", m, b, err)
					}
					assertBitExact(t, scratchAnalyze(t, d, opts), inc, m.String())
					if inc.ECO == nil {
						t.Fatalf("%s: no ECO stats on incremental result", m)
					}
					reused += inc.ECO.ReusedLines
					res = inc
				}
			}
			if reused == 0 {
				t.Fatal("incremental runs reused no lines at all")
			}
		})
	}
}

// TestReanalyzeClockVictimRelaunch: PI22 of s35932 at scale 0.05
// couples to a clock net, so its slew edit dirties that clock net in
// the middle of the first pass (the one-step victim rule). The clock
// arrival moves earlier, and every flip-flop it clocks must relaunch
// from the new arrival instead of keeping its stored, later launch. The
// incremental result must equal a from-scratch analysis in every net's
// final state, in both coupling-aware modes and at any worker count; the
// reference is compiled from scratch.
func TestReanalyzeClockVictimRelaunch(t *testing.T) {
	d, err := GeneratePreset(S35932, 0.05, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var optsList []AnalysisOptions
	var base []*AnalysisResult
	for _, m := range []Mode{OneStep, Iterative} {
		for _, w := range []int{1, 2} {
			opts := AnalysisOptions{Mode: m, Tier0: true, Workers: w}
			res, err := d.Analyze(opts)
			if err != nil {
				t.Fatal(err)
			}
			optsList = append(optsList, opts)
			base = append(base, res)
		}
	}
	if err := d.Edit(SetInputSlew("PI22", 20e-12)); err != nil {
		t.Fatal(err)
	}
	for i, opts := range optsList {
		inc, err := d.Reanalyze(base[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitExact(t, scratchAnalyze(t, d, opts), inc, fmt.Sprintf("%s workers %d", opts.Mode, opts.Workers))
	}
}

// TestReanalyzeEmptyEdits: re-analyzing with no edits at the same
// revision must hand back the previous result unchanged.
func TestReanalyzeEmptyEdits(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 31, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Analyze(AnalysisOptions{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Reanalyze(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("Reanalyze with no edits did not return the previous result")
	}
	// Same with an explicitly empty batch.
	again, err = d.Reanalyze(res, []Edit{})
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("Reanalyze with an empty batch did not return the previous result")
	}
}

// TestReanalyzePIEditDirtiesDivergence: an input-slew edit must stay
// exact while re-evaluating only the lines whose state diverges — some,
// but fewer than the PI's structural fan-out cone.
func TestReanalyzePIEditDirtiesDivergence(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 32, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	c := d.Circuit
	// Pick the PI with the widest immediate fanout so the cone is
	// non-trivial.
	pi := c.PIs[0]
	for _, cand := range c.PIs {
		if len(c.Net(cand).Fanout) > len(c.Net(pi).Fanout) {
			pi = cand
		}
	}
	// The structural cone: combinational cells reachable from the PI.
	coneCells := map[netlist.CellID]bool{}
	queue := []netlist.NetID{pi}
	seen := map[netlist.NetID]bool{pi: true}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ref := range c.Net(n).Fanout {
			cell := c.Cell(ref.Cell)
			if cell.Kind == netlist.DFF || cell.Out == netlist.NoNet {
				continue
			}
			coneCells[cell.ID] = true
			if !seen[cell.Out] {
				seen[cell.Out] = true
				queue = append(queue, cell.Out)
			}
		}
	}
	if len(coneCells) < 2 {
		t.Fatalf("degenerate cone (%d cells) — pick a better seed", len(coneCells))
	}

	opts := AnalysisOptions{Mode: BestCase}
	res, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := d.Reanalyze(res, []Edit{SetInputSlew(c.Net(pi).Name, 180e-12)})
	if err != nil {
		t.Fatal(err)
	}
	full, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, full, inc, "pi edit")
	if n := inc.ECO.DirtyLines; n <= 0 || n >= int64(len(coneCells)) {
		t.Fatalf("dirty lines %d, want 0 < n < structural cone size %d", n, len(coneCells))
	}
}

// TestReanalyzeOverlappingConesDedup: a batch whose edits have
// overlapping fan-out cones must evaluate each line exactly once per
// pass — dirty + reused line counts (cross-checked against the metrics
// registry) add up to one evaluation per cell.
func TestReanalyzeOverlappingConesDedup(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 33, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	c := d.Circuit
	// Two resizes with nested cones: cellB is a direct sink of cellA's
	// output, so B's cone is inside A's.
	var cellA, cellB *netlist.Cell
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF || cell.Out == netlist.NoNet {
			continue
		}
		for _, ref := range c.Net(cell.Out).Fanout {
			sink := c.Cell(ref.Cell)
			if sink.Kind != netlist.DFF && sink.Out != netlist.NoNet {
				cellA, cellB = cell, sink
				break
			}
		}
		if cellA != nil {
			break
		}
	}
	if cellA == nil {
		t.Fatal("no nested cone pair found")
	}

	reg := NewMetricsRegistry()
	opts := AnalysisOptions{Mode: BestCase, Metrics: reg}
	res, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := d.Reanalyze(res, []Edit{
		ResizeCell(cellA.Name, 1.8),
		ResizeCell(cellB.Name, 1.4),
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, full, inc, "nested cones")

	eco := inc.ECO
	// Every line is either reused or re-evaluated, exactly once per
	// pass: overlap between the two cones must not be double-counted.
	perPass := eco.DirtyLines + eco.ReusedLines
	if inc.Passes > 0 {
		perPass /= int64(inc.Passes)
	}
	if got, want := perPass, int64(len(c.Cells)); got != want {
		t.Fatalf("dirty+reused = %d lines per pass, want exactly one evaluation per cell (%d)", got, want)
	}
	// And the observability counters must agree with the result stats.
	if got := reg.Counter(obs.MEcoDirtyLines).Value(); got != eco.DirtyLines {
		t.Fatalf("eco_dirty_lines metric %d != result stat %d", got, eco.DirtyLines)
	}
	if got := reg.Counter(obs.MEcoReusedLines).Value(); got != eco.ReusedLines {
		t.Fatalf("eco_reused_lines metric %d != result stat %d", got, eco.ReusedLines)
	}
	if reg.Counter(obs.MEcoConeExpansions).Value() != eco.ConeExpansions {
		t.Fatal("eco_cone_expansions metric disagrees with result stat")
	}
}

// TestReanalyzeRejectsForeignResults: results without replay state
// (LUT, corners) must be rejected, as must nil.
func TestReanalyzeRejectsForeignResults(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 34, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reanalyze(nil, nil); err == nil {
		t.Fatal("nil result accepted")
	}
	lut, err := d.Precharacterize(LUTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.AnalyzeLUT(lut, AnalysisOptions{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replay != nil {
		t.Fatal("LUT analysis captured replay state; it must not seed Reanalyze")
	}
	if _, err := d.Reanalyze(res, nil); err == nil {
		t.Fatal("LUT result accepted by Reanalyze")
	}
}

// TestEditRevisionBookkeeping: Edit bumps the revision, stale results
// are re-analyzed across multiple accumulated batches at once (on a
// snapshot derived across both, checked against one compiled from
// scratch).
func TestEditRevisionBookkeeping(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 35, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	c := d.Circuit
	opts := AnalysisOptions{Mode: OneStep}
	res, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replay.Revision() != 0 || d.Revision() != 0 {
		t.Fatalf("fresh design at revision %d / result %d", d.Revision(), res.Replay.Revision())
	}

	// Two separate Edit calls, then one Reanalyze spanning both.
	var gates []*netlist.Cell
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet {
			gates = append(gates, cell)
			if len(gates) == 2 {
				break
			}
		}
	}
	if err := d.Edit(ResizeCell(gates[0].Name, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.Edit(ResizeCell(gates[1].Name, 0.8)); err != nil {
		t.Fatal(err)
	}
	if d.Revision() != 2 {
		t.Fatalf("revision %d after two edit batches, want 2", d.Revision())
	}
	inc, err := d.Reanalyze(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc == res {
		t.Fatal("stale result returned unchanged despite pending edits")
	}
	if inc.Replay.Revision() != 2 {
		t.Fatalf("incremental result at revision %d, want 2", inc.Replay.Revision())
	}
	assertBitExact(t, scratchAnalyze(t, d, opts), inc, "accumulated batches")
}

// TestFixTimingStartsFromEditedSizes: the sizing optimizer works on the
// edited design. With every driver of the critical path resized to 0.5,
// its Before is Analyze of the edited design bit for bit, Sizes lists
// the cells the edits resized, and its first move on such a cell
// multiplies the edited size.
func TestFixTimingStartsFromEditedSizes(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 13, Cells: 100, DFFs: 8, Depth: 6}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalysisOptions{Mode: BestCase}
	base, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	const size = 0.5
	var edits []Edit
	resized := make(map[string]bool)
	for _, st := range base.Path {
		if st.Cell != "" {
			edits = append(edits, ResizeCell(st.Cell, size))
			resized[st.Cell] = true
		}
	}
	if err := d.Edit(edits...); err != nil {
		t.Fatal(err)
	}
	edited, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SizingConfig{MaxIterations: 2, UpsizeFactor: 1.6}
	res, err := d.FixTiming(opts, edited.LongestPath*0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Before) != math.Float64bits(edited.LongestPath) {
		t.Fatalf("FixTiming Before %.6g ns != Analyze of the edited design %.6g ns (unedited %.6g ns)",
			res.Before*1e9, edited.LongestPath*1e9, base.LongestPath*1e9)
	}
	c := d.circuit()
	for _, cell := range c.Cells {
		if resized[cell.Name] {
			if _, ok := res.Sizes[cell.ID]; !ok {
				t.Errorf("Sizes omits %s, resized to %g before the run", cell.Name, size)
			}
		}
	}
	first := 0
	moved := make(map[string]bool)
	for _, mv := range res.Moves {
		if resized[mv.Cell] && !moved[mv.Cell] {
			first++
			if want := size * cfg.UpsizeFactor; mv.NewSize != want {
				t.Errorf("first move on %s: size %g, want the edited %g × %g", mv.Cell, mv.NewSize, size, cfg.UpsizeFactor)
			}
		}
		moved[mv.Cell] = true
	}
	if first == 0 {
		t.Fatal("no move touched a resized cell; the check is vacuous")
	}
}

// TestGoldenPathSeesResize: the transistor-level path simulator sizes
// its stages by the circuit's sizes. Tripling every driver of the
// critical path must cut the golden delay by at least 20%.
func TestGoldenPathSeesResize(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 13, Cells: 160, DFFs: 12, Depth: 8, ClockFanout: 8}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Analyze(AnalysisOptions{Mode: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	cfg := GoldenConfig{MaxOptimizedAggressors: 3, Candidates: 3, Rounds: 1}
	before, err := d.GoldenPath(res.Path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var edits []Edit
	for _, st := range res.Path {
		if st.Cell != "" {
			edits = append(edits, ResizeCell(st.Cell, 3))
		}
	}
	if err := d.Edit(edits...); err != nil {
		t.Fatal(err)
	}
	after, err := d.GoldenPath(res.Path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden delay %.5f ns, %.5f ns after tripling %d drivers", before.Delay*1e9, after.Delay*1e9, len(edits))
	if after.Delay > 0.8*before.Delay {
		t.Fatalf("golden delay %.5g ns after tripling %d drivers, want at most 80%% of %.5g ns",
			after.Delay*1e9, len(edits), before.Delay*1e9)
	}
}
