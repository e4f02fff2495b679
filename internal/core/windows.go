package core

import (
	"fmt"
	"math"

	"xtalksta/internal/netlist"
)

// Activity windows (extension beyond the paper).
//
// The paper's one-step rule uses only the *latest* activity bound: a
// neighbor couples when its quiescent time lies after the victim's
// earliest activity t_bcs. The complementary bound — a neighbor cannot
// couple before its own *earliest* possible activity — was out of the
// paper's scope and became standard in later SI timers (timing
// windows). With windows, an aggressor couples only when
//
//	[aggEarliestStart, aggQuiet]  ∩  [t_bcs, victimQuiet] ≠ ∅.
//
// The earliest bound below is computed with best-case (uncoupled) arc
// delays. A strictly sound lower bound would also credit same-direction
// coupling speedup; like production window-based timers, this trades a
// sliver of formal conservatism for bound tightness, and the golden
// path simulations in the test suite check the result stays an upper
// bound in practice.

// windowBounds runs the min pass ahead of an Iterative Windows run and
// installs the earliest-activity bounds (Engine.earliestStart). A seeded
// run (prev non-nil) replays prev's stored min pass. The returned mask
// flags the bounds that moved: in a seeded run their coupled victims
// must re-run the window pruning test in every refinement pass.
func (e *Engine) windowBounds(prev *ReplayState, seed []bool, eco *ECOStats) ([]bool, error) {
	span := "min-pass"
	if prev != nil {
		if prev.early == nil {
			return nil, fmt.Errorf("core: RunSeeded: replay lacks min-pass data (captured without Windows?)")
		}
		span = "eco-min-pass"
	}
	sp := e.trace.Begin(span, 0)
	early, slews, changed, err := e.minSweep(prev, seed, eco)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !e.opts.DisableReplay {
		e.replayEarly, e.replaySlews = early, slews
	}
	e.earliestStart = startTimes(early, slews)
	return changed, nil
}

// startTimes converts 50%-crossing arrivals to transition-start times
// (arrival − slew/2), leaving the raw inputs untouched.
func startTimes(early, slews [][2]float64) [][2]float64 {
	out := make([][2]float64, len(early))
	for i := range early {
		out[i] = early[i]
		for d := 0; d < 2; d++ {
			if !math.IsInf(out[i][d], 1) {
				out[i][d] -= slews[i][d] / 2
			}
		}
	}
	return out
}

// minSweep computes the earliest 50% arrivals per (net, dir) and their
// slews, with best-case arc delays (+Inf where a line never switches
// that way). A full pass (prev == nil) evaluates every line; a seeded
// pass keeps prev's stored values on clean lines and re-evaluates the
// dirty set — the edit seeds, grown through the fanout of every
// recomputed value that moved — counting them into eco.MinPassDirty.
// changed flags the nets whose values moved.
func (e *Engine) minSweep(prev *ReplayState, seed []bool, eco *ECOStats) (early, slews [][2]float64, changed []bool, err error) {
	c := e.C
	n := len(c.Nets)
	early = make([][2]float64, n)
	slews = make([][2]float64, n)
	dirty := make([]bool, n)
	changed = make([]bool, n)
	if prev != nil {
		copy(early, prev.early)
		copy(slews, prev.slews)
		copy(dirty, seed)
	} else {
		for i := range early {
			early[i] = [2]float64{math.Inf(1), math.Inf(1)}
			dirty[i] = true
		}
	}
	var evaluated int64
	mark := func(id netlist.NetID) { dirty[id-1] = true }
	// update installs a re-evaluated line's values, growing the dirty
	// set when they moved.
	update := func(net netlist.NetID, ne, ns [2]float64) {
		if early[net-1] != ne || slews[net-1] != ns {
			early[net-1], slews[net-1] = ne, ns
			changed[net-1] = true
			e.forFanout(net, mark)
		}
	}
	for _, pi := range c.PIs {
		if dirty[pi-1] {
			slew := e.piSlewFor(pi)
			update(pi, [2]float64{0, 0}, [2]float64{slew, slew})
		}
	}

	process := func(cell *netlist.Cell) error {
		out := cell.Out
		if !dirty[out-1] {
			return nil
		}
		evaluated++
		inf := &e.info[out-1]
		ne, ns := [2]float64{math.Inf(1), math.Inf(1)}, [2]float64{}
		for dOut := 0; dOut < 2; dOut++ {
			dIn := 1 - dOut
			for pin, inNet := range cell.In {
				if math.IsInf(early[inNet-1][dIn], 1) {
					continue
				}
				inArr := early[inNet-1][dIn]
				if !e.opts.PiModel {
					inArr += e.sink.At(cell.ID, pin)
				}
				inSlew := slews[inNet-1][dIn]
				if inSlew <= 0 {
					inSlew = e.opts.PISlew
				}
				// Fastest plausible conditions: coupling caps grounded
				// at face value (neighbors quiet), the load lumped at
				// the driver.
				res, err := e.Calc.Eval(e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0, false))
				if err != nil {
					return err
				}
				if a := inArr + res.Delay; a < ne[dOut] {
					ne[dOut] = a
					ns[dOut] = res.OutSlew
				}
			}
		}
		update(out, ne, ns)
		return nil
	}

	// Clock tree first, then flip-flop launches, then the rest: the
	// timing sweep's phase order.
	for _, cid := range e.order {
		if cell := c.Cell(cid); c.Net(cell.Out).IsClock {
			if err := process(cell); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF || !dirty[cell.Out-1] {
			continue
		}
		evaluated++
		launch := e.launchTime(cell, func(clk netlist.NetID) float64 { return early[clk-1][dirRise] })
		ds := e.opts.DFFOutSlew
		update(cell.Out, [2]float64{launch, launch}, [2]float64{ds, ds})
	}
	for _, cid := range e.order {
		if cell := c.Cell(cid); !c.Net(cell.Out).IsClock {
			if err := process(cell); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if eco != nil {
		eco.MinPassDirty += evaluated
	}
	return early, slews, changed, nil
}
