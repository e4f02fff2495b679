package liberty

import (
	"bytes"
	"math"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

func newCalc(t testing.TB) *delaycalc.Calculator {
	t.Helper()
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	m, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		t.Fatal(err)
	}
	return delaycalc.New(lib, ccc.DefaultSizing(p), m, delaycalc.Options{})
}

func smallConfig() Config {
	return Config{
		Slews:  []float64{100e-12, 400e-12, 1.2e-9},
		Loads:  []float64{10e-15, 60e-15, 250e-15},
		Ratios: []float64{0, 0.5},
		MaxNIn: 3,
	}
}

func characterizeSmall(t testing.TB) (*Library, *delaycalc.Calculator) {
	t.Helper()
	calc := newCalc(t)
	lib, err := Characterize("test05um", calc, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return lib, calc
}

func TestCharacterizeCoversAllClasses(t *testing.T) {
	lib, _ := characterizeSmall(t)
	classes := lib.Classes()
	// INV(2) + NAND2,3 (2+3 pins)*2 dirs + NOR2,3 likewise = 2 + 10 + 10.
	if len(classes) != 22 {
		t.Errorf("classes = %d, want 22", len(classes))
	}
	for _, class := range classes {
		tab := lib.tables[class]
		for si := range tab.Slews {
			for li := range tab.Loads {
				for ri := range tab.Ratios {
					if tab.Delay[si][li][ri] <= 0 {
						t.Errorf("%s: non-positive delay at (%d,%d,%d)", class, si, li, ri)
					}
				}
			}
		}
	}
}

func TestLUTMatchesCalculatorOnGridPoints(t *testing.T) {
	lib, calc := characterizeSmall(t)
	req := delaycalc.Request{
		Kind: netlist.NAND, NIn: 2, Pin: 1, Dir: waveform.Rising,
		InSlew: 400e-12, CLoad: 30e-15, CCouple: 30e-15, // ratio 0.5, load 60f: grid point
	}
	want, err := calc.Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lib.Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	if rel(got.Delay, want.Delay) > 1e-6 {
		t.Errorf("grid-point delay %v != calculator %v", got.Delay, want.Delay)
	}
}

func TestLUTInterpolationAccuracy(t *testing.T) {
	lib, calc := characterizeSmall(t)
	// Off-grid points: interpolation error within ~12% on the coarse
	// test grid (production grids are denser).
	for _, req := range []delaycalc.Request{
		{Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Falling, InSlew: 240e-12, CLoad: 35e-15},
		{Kind: netlist.NAND, NIn: 3, Pin: 0, Dir: waveform.Rising, InSlew: 600e-12, CLoad: 90e-15, CCouple: 40e-15},
		{Kind: netlist.NOR, NIn: 2, Pin: 1, Dir: waveform.Falling, InSlew: 150e-12, CLoad: 120e-15},
	} {
		want, err := calc.Eval(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lib.Eval(req)
		if err != nil {
			t.Fatal(err)
		}
		if r := rel(got.Delay, want.Delay); r > 0.12 {
			t.Errorf("%s%d/%d: LUT delay %v vs calc %v (%.1f%%)",
				req.Kind, req.NIn, req.Pin, got.Delay, want.Delay, r*100)
		}
	}
}

func TestLUTRejectsUnsupported(t *testing.T) {
	lib, _ := characterizeSmall(t)
	if _, err := lib.Eval(delaycalc.Request{
		Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising, InSlew: 1e-10, CLoad: 1e-15, RWire: 10,
	}); err == nil {
		t.Error("π-model request must be rejected")
	}
	if _, err := lib.Eval(delaycalc.Request{
		Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising, InSlew: 1e-10, CLoad: 1e-15, SizeMult: 4,
	}); err == nil {
		t.Error("scaled-cell request must be rejected")
	}
	if _, err := lib.Eval(delaycalc.Request{
		Kind: netlist.NAND, NIn: 4, Pin: 0, Dir: waveform.Rising, InSlew: 1e-10, CLoad: 1e-15,
	}); err == nil {
		t.Error("uncharacterized class (MaxNIn=3) must be rejected")
	}
}

func TestFallbackChains(t *testing.T) {
	lib, calc := characterizeSmall(t)
	fb := &Fallback{Primary: lib, Secondary: calc}
	// Supported request: served by the LUT, one request, no simulation.
	_, info, err := fb.EvalInfo(delaycalc.Request{
		Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising, InSlew: 2e-10, CLoad: 2e-14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info != (delaycalc.Info{Requests: 1}) {
		t.Errorf("LUT-served request: info %+v, want one request and no simulation", info)
	}
	// Clock buffer (SizeMult 4): the LUT rejects it and the calculator
	// serves it, so it counts once, as the calculator's request.
	_, info, err = fb.EvalInfo(delaycalc.Request{
		Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising, InSlew: 2e-10, CLoad: 2e-14, SizeMult: 4,
	})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if info.Requests != 1 || info.Simulations+info.CacheHits != 1 {
		t.Errorf("fallback request: info %+v, want one calculator request", info)
	}
	if fb.Proc().VDD != 3.3 {
		t.Error("Proc passthrough broken")
	}
	_ = fb.Siz()
	fb.ClearCache()
}

func TestFormatRoundTrip(t *testing.T) {
	lib, _ := characterizeSmall(t)
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lib2, err := Parse(bytes.NewReader(buf.Bytes()), lib)
	if err != nil {
		t.Fatalf("parse back: %v\nfirst lines:\n%s", err, firstLines(buf.String(), 8))
	}
	if lib2.Name != lib.Name {
		t.Errorf("name %q != %q", lib2.Name, lib.Name)
	}
	if len(lib2.tables) != len(lib.tables) {
		t.Fatalf("tables %d != %d", len(lib2.tables), len(lib.tables))
	}
	req := delaycalc.Request{
		Kind: netlist.NOR, NIn: 3, Pin: 2, Dir: waveform.Rising,
		InSlew: 300e-12, CLoad: 70e-15, CCouple: 10e-15,
	}
	a, err := lib.Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lib2.Eval(req)
	if err != nil {
		t.Fatal(err)
	}
	if rel(a.Delay, b.Delay) > 1e-6 {
		t.Errorf("round trip changed lookup: %v vs %v", a.Delay, b.Delay)
	}
}

func TestParseErrors(t *testing.T) {
	lib, _ := characterizeSmall(t)
	cases := map[string]string{
		"attr outside arc": "library (x) {\n  delay (\"1\");\n}\n",
		"bad class":        "library (x) {\n  arc (WHAT/0/rise) {\n  }\n}\n",
		"bad number":       "library (x) {\n  arc (NOT1/0/rise) {\n    index_slew (\"abc\");\n  }\n}\n",
		"missing axes":     "library (x) {\n  arc (NOT1/0/rise) {\n    delay (\"1\");\n  }\n}\n",
		"bad dir":          "library (x) {\n  arc (NOT1/0/sideways) {\n  }\n}\n",
	}
	for name, src := range cases {
		if _, err := Parse(bytes.NewReader([]byte(src)), lib); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := Parse(bytes.NewReader(nil), nil); err == nil {
		t.Error("nil source must error")
	}
}

func TestAxisPos(t *testing.T) {
	axis := []float64{1, 2, 4}
	cases := []struct {
		v float64
		i int
		f float64
	}{
		{0.5, 0, 0}, {1, 0, 0}, {1.5, 0, 0.5}, {2, 1, 0}, {3, 1, 0.5}, {4, 1, 1}, {9, 1, 1},
	}
	for _, tc := range cases {
		i, f := axisPos(axis, tc.v)
		if i != tc.i || math.Abs(f-tc.f) > 1e-12 {
			t.Errorf("axisPos(%v) = (%d, %v), want (%d, %v)", tc.v, i, f, tc.i, tc.f)
		}
	}
}

func rel(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func firstLines(s string, n int) string {
	lines := make([]string, 0, n)
	for _, l := range bytes.Split([]byte(s), []byte("\n")) {
		lines = append(lines, string(l))
		if len(lines) >= n {
			break
		}
	}
	return string(bytes.Join(toBytes(lines), []byte("\n")))
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestValidateReportsAccuracy(t *testing.T) {
	lib, calc := characterizeSmall(t)
	worst, probes, err := lib.Validate(calc)
	if err != nil {
		t.Fatal(err)
	}
	if probes != len(lib.Classes()) {
		t.Errorf("probes = %d, want %d", probes, len(lib.Classes()))
	}
	if worst <= 0 || worst > 0.20 {
		t.Errorf("worst midpoint error %.1f%% outside plausible range", worst*100)
	}
	t.Logf("midpoint validation: worst %.2f%% over %d probes", worst*100, probes)
}
