package core

import (
	"math"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

// buildExtracted prepares a lowered, placed, routed and extracted
// circuit plus a calculator.
func buildExtracted(t testing.TB, cells, dffs, depth int, seed int64) (*netlist.Circuit, *delaycalc.Calculator) {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{
		Seed: seed, Cells: cells, DFFs: dffs, PIs: 6, POs: 6, Depth: depth, ClockFanout: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	p := device.Generic05um()
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	lib := device.NewLibrary(p, 0)
	m, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		t.Fatal(err)
	}
	calc := delaycalc.New(lib, siz, m, delaycalc.Options{})
	return c, calc
}

func runMode(t testing.TB, c *netlist.Circuit, calc *delaycalc.Calculator, opts Options) *Result {
	t.Helper()
	eng, err := NewEngine(c, calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllModesOnSmallCircuit(t *testing.T) {
	c, calc := buildExtracted(t, 180, 16, 8, 101)
	results := map[Mode]*Result{}
	for _, m := range Modes() {
		res := runMode(t, c, calc, Options{Mode: m})
		if math.IsInf(res.LongestPath, -1) || res.LongestPath <= 0 {
			t.Fatalf("%s: no longest path (%v)", m, res.LongestPath)
		}
		if res.LongestPath > 1e-6 {
			t.Fatalf("%s: absurd delay %v", m, res.LongestPath)
		}
		results[m] = res
	}

	best := results[BestCase].LongestPath
	dbl := results[StaticDoubled].LongestPath
	worst := results[WorstCase].LongestPath
	one := results[OneStep].LongestPath
	iter := results[Iterative].LongestPath

	// The paper's ordering invariants (§6).
	if !(best < dbl) {
		t.Errorf("best (%v) must be below static doubled (%v)", best, dbl)
	}
	if !(best < worst) {
		t.Errorf("best (%v) must be below worst (%v)", best, worst)
	}
	tol := 0.02 * worst // cache quantization tolerance
	if one > worst+tol {
		t.Errorf("one-step (%v) must not exceed worst case (%v)", one, worst)
	}
	if iter > one+tol {
		t.Errorf("iterative (%v) must not exceed one-step (%v)", iter, one)
	}
	if best > iter+tol {
		t.Errorf("iterative (%v) must not drop below best case (%v) — it must stay an upper bound", iter, best)
	}
	t.Logf("best=%.3gns dbl=%.3gns worst=%.3gns one=%.3gns iter=%.3gns",
		best*1e9, dbl*1e9, worst*1e9, one*1e9, iter*1e9)
}

func TestCriticalPathWellFormed(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 102)
	res := runMode(t, c, calc, Options{Mode: OneStep})
	if len(res.Path) < 2 {
		t.Fatalf("critical path too short: %+v", res.Path)
	}
	// Arrivals must be non-decreasing along the path, directions
	// alternate (inverting library), and the last step must be the
	// endpoint net.
	for i := 1; i < len(res.Path); i++ {
		if res.Path[i].Arrival < res.Path[i-1].Arrival-1e-15 {
			t.Errorf("arrival decreases along path at step %d: %v -> %v",
				i, res.Path[i-1].Arrival, res.Path[i].Arrival)
		}
		if res.Path[i].Dir == res.Path[i-1].Dir {
			t.Errorf("directions do not alternate at step %d (inverting library)", i)
		}
	}
	if res.Path[len(res.Path)-1].Net != res.Endpoint.Net {
		t.Errorf("path ends at %s, endpoint is %s", res.Path[len(res.Path)-1].Net, res.Endpoint.Net)
	}
	if res.Endpoint.Kind != "DFF/D" && res.Endpoint.Kind != "PO" {
		t.Errorf("bad endpoint kind %q", res.Endpoint.Kind)
	}
}

func TestIterativeConverges(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 103)
	res := runMode(t, c, calc, Options{Mode: Iterative})
	if res.Passes < 2 {
		t.Errorf("iterative must run at least 2 passes, ran %d", res.Passes)
	}
	if res.Passes > maxPasses {
		t.Errorf("pass cap exceeded: %d", res.Passes)
	}
}

func TestOneStepCostsTwoCalcsPerArc(t *testing.T) {
	// Paper §5.1: "the waveform calculation is performed twice for each
	// timing arc" compared to the plain BFS.
	c, calc := buildExtracted(t, 120, 10, 6, 105)
	best := runMode(t, c, calc, Options{Mode: BestCase})
	one := runMode(t, c, calc, Options{Mode: OneStep})
	lo := int64(float64(best.ArcEvaluations) * 1.5)
	hi := int64(float64(best.ArcEvaluations) * 2.2)
	if one.ArcEvaluations < lo || one.ArcEvaluations > hi {
		t.Errorf("one-step evaluations %d outside ~2x of best-case %d",
			one.ArcEvaluations, best.ArcEvaluations)
	}
}

func TestRunRecordsStats(t *testing.T) {
	c, calc := buildExtracted(t, 100, 8, 6, 106)
	res := runMode(t, c, calc, Options{Mode: WorstCase})
	if res.Runtime <= 0 {
		t.Error("runtime not recorded")
	}
	if res.ArcEvaluations <= 0 {
		t.Error("no arc evaluations recorded")
	}
	if res.Simulations > res.ArcEvaluations {
		t.Error("simulations exceed evaluations")
	}
}

func TestRequiresLoweredCircuit(t *testing.T) {
	c := netlist.S27() // not lowered: contains AND/OR
	p := device.Generic05um()
	lib := device.NewLibrary(p, 65)
	m, _ := coupling.NewModel(p.VDD, p.VthModel)
	calc := delaycalc.New(lib, ccc.DefaultSizing(p), m, delaycalc.Options{})
	if _, err := NewEngine(c, calc, Options{Mode: BestCase}); err == nil {
		t.Error("non-lowered circuit must be rejected")
	}
}

func TestS27EndToEnd(t *testing.T) {
	c := netlist.S27()
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	p := device.Generic05um()
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	lib := device.NewLibrary(p, 0)
	m, _ := coupling.NewModel(p.VDD, p.VthModel)
	calc := delaycalc.New(lib, siz, m, delaycalc.Options{})
	for _, mode := range Modes() {
		res := runMode(t, c, calc, Options{Mode: mode})
		if res.LongestPath <= 0 || res.LongestPath > 100e-9 {
			t.Errorf("s27 %s: longest path %v implausible", mode, res.LongestPath)
		}
	}
}

func TestWireDelayReported(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 107)
	res := runMode(t, c, calc, Options{Mode: OneStep})
	if res.WireDelayOnLongestPath < 0 {
		t.Error("negative wire delay")
	}
	if res.WireDelayOnLongestPath >= res.LongestPath {
		t.Errorf("wire delay %v cannot exceed total path delay %v",
			res.WireDelayOnLongestPath, res.LongestPath)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		BestCase: "Best case", StaticDoubled: "Static doubled",
		WorstCase: "Worst case", OneStep: "One step", Iterative: "Iterative",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestAttributionTopKValidation: NewSession refuses a negative
// AttributionTopK with an error naming the field instead of slicing the
// endpoint list with a negative bound; 0 selects the default of 10 and
// a positive value caps the attributed paths.
func TestAttributionTopKValidation(t *testing.T) {
	c, calc := buildExtracted(t, 120, 10, 6, 131)
	for _, tc := range []struct {
		topK     int
		wantErr  bool
		maxPaths int
	}{
		{topK: -1, wantErr: true},
		{topK: math.MinInt, wantErr: true},
		{topK: 0, maxPaths: 10},
		{topK: 1, maxPaths: 1},
	} {
		eng, err := NewEngine(c, calc, Options{Mode: OneStep, Attribution: true, AttributionTopK: tc.topK})
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "AttributionTopK") {
				t.Errorf("topK %d: NewEngine error %v, want one naming AttributionTopK", tc.topK, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("topK %d: %v", tc.topK, err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("topK %d: %v", tc.topK, err)
		}
		if n := len(res.Attribution.Paths); n == 0 || n > tc.maxPaths {
			t.Errorf("topK %d: %d attributed paths, want 1..%d", tc.topK, n, tc.maxPaths)
		}
	}
}
