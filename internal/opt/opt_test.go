package opt

import (
	"slices"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

func setup(t *testing.T, seed int64) (*netlist.Circuit, *delaycalc.Calculator) {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: seed, Cells: 140, DFFs: 12, Depth: 8, ClockFanout: 4})
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
	return c, delaycalc.New(lib, siz, m, delaycalc.Options{})
}

func baseline(t *testing.T, c *netlist.Circuit, calc *delaycalc.Calculator) float64 {
	t.Helper()
	eng, err := core.NewEngine(c, calc, core.Options{Mode: core.OneStep})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.LongestPath
}

func TestFixTimingImprovesDelay(t *testing.T) {
	c, calc := setup(t, 801)
	before := baseline(t, c, calc)
	// Ask for a period 15% below the current longest path: requires work
	// but should be reachable with a few upsizes.
	period := before * 0.85
	res, err := FixTiming(c, calc, core.Options{Mode: core.OneStep}, period, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.After >= res.Before {
		t.Errorf("optimizer did not improve: %v -> %v", res.Before, res.After)
	}
	if len(res.Moves) == 0 {
		t.Error("no sizing moves recorded")
	}
	for _, mv := range res.Moves {
		if mv.NewSize <= 1 || mv.NewSize > 8.01 {
			t.Errorf("move %s size %v out of bounds", mv.Cell, mv.NewSize)
		}
	}
	t.Logf("before %.3f ns, after %.3f ns (target %.3f ns, met=%v, %d moves)",
		res.Before*1e9, res.After*1e9, period*1e9, res.Met, len(res.Moves))
}

func TestFixTimingAlreadyMet(t *testing.T) {
	c, calc := setup(t, 802)
	before := baseline(t, c, calc)
	res, err := FixTiming(c, calc, core.Options{Mode: core.OneStep}, before*2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Error("generous period must be met immediately")
	}
	if len(res.Moves) != 0 {
		t.Errorf("no moves expected, got %d", len(res.Moves))
	}
	if res.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", res.Iterations)
	}
}

func TestFixTimingImpossibleTargetTerminates(t *testing.T) {
	c, calc := setup(t, 803)
	before := baseline(t, c, calc)
	// 10x too fast: cannot be met; must terminate with Met=false.
	res, err := FixTiming(c, calc, core.Options{Mode: core.OneStep}, before/10,
		Config{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Error("impossible target reported as met")
	}
	if res.After > res.Before {
		t.Errorf("delay got worse: %v -> %v", res.Before, res.After)
	}
}

func TestFixTimingValidation(t *testing.T) {
	c, calc := setup(t, 804)
	if _, err := FixTiming(c, calc, core.Options{Mode: core.OneStep}, 0, Config{}); err == nil {
		t.Error("period 0 must error")
	}
}

// TestFixTimingAnalyzesEachRevisionOnce: every revision the optimizer
// visits — the starting circuit and one per move batch — costs one
// analysis, and counting them does not change what it decides.
func TestFixTimingAnalyzesEachRevisionOnce(t *testing.T) {
	c, calc := setup(t, 801)
	period := baseline(t, c, calc) * 0.85
	cfg := Config{MaxIterations: 3}
	plain, err := FixTiming(c, calc, core.Options{Mode: core.Iterative, Tier0: true}, period, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := FixTiming(c, calc, core.Options{Mode: core.Iterative, Tier0: true, Metrics: reg}, period, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != plain.Before || res.After != plain.After || !slices.Equal(res.Moves, plain.Moves) {
		t.Fatalf("counted run decided differently: before %v/%v, after %v/%v, moves %v/%v",
			res.Before, plain.Before, res.After, plain.After, res.Moves, plain.Moves)
	}
	// Iterations counts the move batches applied, whichever way the loop
	// ended.
	batches := res.Iterations
	if batches == 0 || len(res.Moves) == 0 {
		t.Fatal("no move batch ran: the test needs a period the first revision misses")
	}
	var analyses int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, obs.MAnalyses+"{") {
			analyses += v
		}
	}
	if want := int64(1 + batches); analyses != want {
		t.Errorf("%d analyses for %d move batches, want %d (one per revision)", analyses, batches, want)
	}
}
