package xtalksta

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/netlist"
)

func TestFromBenchS27AllModes(t *testing.T) {
	d, err := FromBench("s27", strings.NewReader(netlist.S27Bench), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("expected 5 analyses, got %d", len(results))
	}
	for _, r := range results {
		if r.LongestPath <= 0 {
			t.Errorf("%s: longest path %v", r.Mode, r.LongestPath)
		}
	}
}

func TestGeneratePresetTableAndShape(t *testing.T) {
	d, err := GeneratePreset(S35932, 0.015, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells < 200 {
		t.Fatalf("scaled preset too small: %d cells", st.Cells)
	}
	table, err := d.PaperTable("Table 1 (scaled): s35932-like", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("table rows = %d", len(table.Rows))
	}
	if violations := table.CheckShape(0.05); len(violations) > 0 {
		t.Errorf("paper shape violated: %v", violations)
	}
	if table.GoldenNs <= 0 {
		t.Error("golden column missing")
	}
	var sb strings.Builder
	if err := table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Iterative") {
		t.Errorf("rendered table missing rows:\n%s", sb.String())
	}
	t.Logf("\n%s", sb.String())
}

// TestDeepPresetShape certifies the paper's ordering on the deep
// (depth-40) s38584-like circuit, complementing the shallow s35932
// check above. Skipped in -short mode.
func TestDeepPresetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("deep preset shape check in -short mode")
	}
	d, err := GeneratePreset(S38584, 0.012, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	table, err := d.PaperTable("s38584-like scaled", false)
	if err != nil {
		t.Fatal(err)
	}
	if v := table.CheckShape(0.05); len(v) > 0 {
		t.Errorf("paper shape violated on deep circuit: %v", v)
	}
}

func TestGenerateCustom(t *testing.T) {
	d, err := Generate(circuitgen.Params{
		Seed: 7, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4,
	}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Analyze(AnalysisOptions{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	if res.LongestPath <= 0 || len(res.Path) < 2 {
		t.Errorf("bad analysis result: %+v", res)
	}
}

func TestFacadeTimingAndNoiseReports(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 8, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Report(AnalysisOptions{Mode: OneStep}, 20e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Endpoints) == 0 {
		t.Error("empty timing report")
	}
	nr, err := d.AnalyzeNoise()
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Nets) == 0 {
		t.Error("empty noise report")
	}
}

func TestFacadeSPEFRoundTrip(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 9, Cells: 120, DFFs: 10, Depth: 6}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var bench, par strings.Builder
	if err := netlist.WriteBench(&bench, d.Circuit); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSPEF(&par); err != nil {
		t.Fatal(err)
	}
	d2, err := FromBenchAndSPEF("rt", strings.NewReader(bench.String()), strings.NewReader(par.String()), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.Analyze(AnalysisOptions{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Analyze(AnalysisOptions{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	// %.6g formatting in the file rounds the parasitics slightly.
	if rel := math.Abs(r1.LongestPath-r2.LongestPath) / r1.LongestPath; rel > 1e-4 {
		t.Errorf("SPEF round trip changed the analysis: %v vs %v (%.2g)", r1.LongestPath, r2.LongestPath, rel)
	}
}

func TestPrecharacterizedAnalysis(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 10, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	lut, err := d.Precharacterize(LUTConfig{
		Slews:  []float64{80e-12, 250e-12, 700e-12, 2e-9},
		Loads:  []float64{8e-15, 30e-15, 90e-15, 300e-15},
		Ratios: []float64{0, 0.35, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := d.Analyze(AnalysisOptions{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := d.AnalyzeLUT(lut, AnalysisOptions{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(fast.LongestPath-exact.LongestPath) / exact.LongestPath
	if rel > 0.10 {
		t.Errorf("LUT analysis off by %.1f%%: %v vs %v", rel*100, fast.LongestPath, exact.LongestPath)
	}
	t.Logf("exact %.3f ns, LUT %.3f ns (Δ %.2f%%)", exact.LongestPath*1e9, fast.LongestPath*1e9, rel*100)
}

func TestCornersAndHold(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 12, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	corners, err := d.AnalyzeCorners(AnalysisOptions{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	if len(corners) != 3 {
		t.Fatalf("corners = %d", len(corners))
	}
	ss := corners[0].Result.LongestPath
	tt := corners[1].Result.LongestPath
	ff := corners[2].Result.LongestPath
	if !(ss > tt && tt > ff) {
		t.Errorf("corner delays must order SS > TT > FF: %v %v %v", ss, tt, ff)
	}
	hold, err := d.ReportHold(AnalysisOptions{Mode: BestCase}, 50e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(hold.Endpoints) == 0 {
		t.Error("empty hold report")
	}
}

func TestFixTimingViaFacade(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 13, Cells: 100, DFFs: 8, Depth: 6}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.Analyze(AnalysisOptions{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.FixTiming(AnalysisOptions{Mode: BestCase}, base.LongestPath*0.9, SizingConfig{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.After > res.Before {
		t.Errorf("sizing made things worse: %v -> %v", res.Before, res.After)
	}
}

func TestFromBenchParseError(t *testing.T) {
	if _, err := FromBench("bad", strings.NewReader("NONSENSE\n"), Defaults()); err == nil {
		t.Error("expected parse error")
	}
}

func TestBuildOptionsDefaults(t *testing.T) {
	var o BuildOptions
	o = o.withDefaults()
	if o.Process.VDD != 3.3 {
		t.Errorf("default process VDD = %v", o.Process.VDD)
	}
	if o.POCap != 30e-15 {
		t.Errorf("default POCap = %v", o.POCap)
	}
}

// TestIterativeReportsBestPass: every Iterative pass reads the previous
// pass's quiescent times, which are upper bounds, so every pass is a
// sound bound. The reported longest path must be the lowest pass, bit
// for bit — the last pass, which ends the refinement by not improving,
// may be looser — and so never above the One-step run, whose sweep is
// Iterative's first pass. The attribution must rebuild that same pass
// exactly.
func TestIterativeReportsBestPass(t *testing.T) {
	for _, pc := range []struct {
		preset Preset
		scale  float64
	}{
		{S35932, 0.05}, {S38417, 0.05}, {S38584, 0.05}, {S35932, 0.25},
	} {
		ctx := fmt.Sprintf("%s@%g", pc.preset, pc.scale)
		d, err := GeneratePreset(pc.preset, pc.scale, Defaults())
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		one, err := d.Analyze(AnalysisOptions{Mode: OneStep, Tier0: true})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		iter, err := d.Analyze(AnalysisOptions{Mode: Iterative, Tier0: true, Attribution: true})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		lowest := math.Inf(1)
		var passes []float64
		for _, ps := range iter.PassStats {
			lowest = math.Min(lowest, ps.LongestPath)
			passes = append(passes, ps.LongestPath*1e9)
		}
		if math.Float64bits(iter.LongestPath) != math.Float64bits(lowest) {
			t.Errorf("%s: Iterative reports %.5f ns, its lowest pass %.5f ns (passes %.5f)",
				ctx, iter.LongestPath*1e9, lowest*1e9, passes)
		}
		if iter.LongestPath > one.LongestPath {
			t.Errorf("%s: Iterative %.5f ns above One step %.5f ns", ctx, iter.LongestPath*1e9, one.LongestPath*1e9)
		}
		a := iter.Attribution
		if a == nil || len(a.Paths) == 0 {
			t.Fatalf("%s: no attributed paths", ctx)
		}
		if math.Float64bits(a.Paths[0].Total) != math.Float64bits(iter.LongestPath) {
			t.Errorf("%s: attributed worst path %.17g != longest path %.17g", ctx, a.Paths[0].Total, iter.LongestPath)
		}
		for i, p := range a.Paths {
			if !p.Exact {
				t.Errorf("%s: attributed path %d (%s) is not exact", ctx, i, p.Endpoint.Net)
			}
		}
	}
}
