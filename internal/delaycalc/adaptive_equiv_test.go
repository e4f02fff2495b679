package delaycalc

import (
	"math"
	"testing"

	"xtalksta/internal/netlist"
	"xtalksta/internal/spice"
	"xtalksta/internal/waveform"
)

// fixedGridEval is the reference integration the adaptive kernel is
// held to: the request's stage on spice.Transient's fixed
// stepsPerRun-step grid, resimulated from t=0 with a 2.5× window
// whenever the output fails to settle, measured like the production
// path. It also returns the Newton iterations spent.
func fixedGridEval(t *testing.T, c *Calculator, r Request) (Result, int64) {
	t.Helper()
	if r.SizeMult <= 0 {
		r.SizeMult = 1
	}
	s, err := c.prepare(r)
	if err != nil {
		t.Fatalf("fixed %v: %v", r, err)
	}
	var newton int64
	window := s.window
	for attempt := 0; attempt < 4; attempt++ {
		eventTime := math.NaN()
		res, err := s.st.Ckt.Transient(spice.TranOptions{
			TStop:    window,
			DT:       window / stepsPerRun,
			InitialV: s.st.InitialV,
			Probes:   []spice.NodeID{s.st.Far},
			Events:   s.events(&eventTime),
		})
		if err != nil {
			t.Fatalf("fixed %v: %v", r, err)
		}
		newton += int64(res.NewtonIterations)
		tr, err := res.Trace(s.st.Far)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Settled(s.st.OutFinal, 0.05*c.Lib.Proc.VDD) {
			window *= 2.5
			continue
		}
		m, err := c.measure(r, tr, s.tIn50, eventTime)
		if err != nil {
			t.Fatalf("fixed %v: %v", r, err)
		}
		return m, newton
	}
	t.Fatalf("fixed %v: output never settled", r)
	return Result{}, 0
}

// TestAdaptiveMatchesFixedGridProperty sweeps cell kinds, pins,
// directions, slews, loads and coupling fractions and demands the
// adaptive integration kernel reproduce the fixed 700-step grid's
// delays and output slews to within 0.5%.
func TestAdaptiveMatchesFixedGridProperty(t *testing.T) {
	adapt := newCalc(t, Options{DisableCache: true})

	type gate struct {
		kind netlist.GateKind
		nin  int
		pins []int
	}
	gates := []gate{
		{netlist.INV, 1, []int{0}},
		{netlist.NAND, 2, []int{0, 1}},
		{netlist.NAND, 3, []int{1}},
		{netlist.NOR, 2, []int{0, 1}},
		{netlist.NOR, 3, []int{2}},
	}
	slews := []float64{0.1e-9, 0.45e-9}
	loads := []float64{20e-15, 90e-15}
	coupleFracs := []float64{0, 0.4}

	// All arcs must agree to 0.5%: the kernel snaps to the reference
	// grid through the active phase, so even the coupling-event firing
	// quantizes identically to the fixed grid. An exact event-fire
	// parity check rides along.
	const tol = 0.005
	checked := 0
	var fixedNewton int64
	for _, g := range gates {
		for _, pin := range g.pins {
			for _, dir := range []waveform.Direction{waveform.Rising, waveform.Falling} {
				for _, slew := range slews {
					for _, load := range loads {
						for _, frac := range coupleFracs {
							r := Request{
								Kind: g.kind, NIn: g.nin, Pin: pin, Dir: dir,
								InSlew:  slew,
								CLoad:   load * (1 - frac),
								CCouple: load * frac,
							}
							rf, n := fixedGridEval(t, adapt, r)
							fixedNewton += n
							ra, err := adapt.Eval(r)
							if err != nil {
								t.Fatalf("adaptive %v: %v", r, err)
							}
							if rel := math.Abs(ra.Delay-rf.Delay) / rf.Delay; rel > tol {
								t.Errorf("%s%d pin %d %s slew %.2g load %.2g cc %.0f%%: delay off by %.3f%% (fixed %.4g adaptive %.4g)",
									g.kind, g.nin, pin, dir, slew, load, 100*frac, 100*rel, rf.Delay, ra.Delay)
							}
							if rel := math.Abs(ra.OutSlew-rf.OutSlew) / rf.OutSlew; rel > tol {
								t.Errorf("%s%d pin %d %s slew %.2g load %.2g cc %.0f%%: out slew off by %.3f%% (fixed %.4g adaptive %.4g)",
									g.kind, g.nin, pin, dir, slew, load, 100*frac, 100*rel, rf.OutSlew, ra.OutSlew)
							}
							// A coupling event either fires in both kernels
							// or in neither.
							if math.IsNaN(rf.EventTime) != math.IsNaN(ra.EventTime) {
								t.Errorf("%s%d pin %d %s cc %.0f%%: event fired in one kernel only (fixed %v adaptive %v)",
									g.kind, g.nin, pin, dir, 100*frac, rf.EventTime, ra.EventTime)
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("checked %d arcs", checked)

	// The whole point: the adaptive kernel must do the work in far
	// fewer Newton iterations than the 700-step grid.
	if ca := adapt.Counters(); ca.NewtonIterations*2 > fixedNewton {
		t.Errorf("adaptive kernel used %d Newton iterations vs fixed %d — expected well under half",
			ca.NewtonIterations, fixedNewton)
	}
}
