package core

import (
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// runPasses implements the per-mode pass control of every run: a full
// analysis (prev == nil) or one seeded from a previous revision's replay
// (prev, with the dirty seed mask; its passes fold their line tallies
// into eco, nil for a full run). Every pass is one sweep over a
// recompute set (dirtySet):
//
//   - a full pass recomputes every line and carries nothing: the
//     single-pass modes and Iterative pass 1;
//   - a delta pass (Iterative from pass 2) recomputes only the lines
//     whose coupling decisions can flip against the quiescent times the
//     previous pass left (seedPass2, seedFlips), grown in-pass by the
//     fanout of anything that diverges;
//   - a seeded pass recomputes the edit seeds against the stored pass of
//     the same index, grown in-pass like a delta pass, with the same pass
//     control, so the stop rule sees the same merged states and the same
//     trajectory. Its refinement passes seed every coupled victim of a
//     net that diverged (seedRefinementDirty): the t_bcs intervals of its
//     carried lines are not stored.
//
// Iterative stops when the longest path stops improving (§5.2) and
// returns its best pass: each pass reads the previous pass's quiescent
// times, which are upper bounds, so every pass is a sound bound and the
// lowest one is reported (the later pass on a tie). The attribution
// context and the replay's final index follow the reported pass.
func (e *Engine) runPasses(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	mode := e.opts.Mode
	firstMode := mode
	if mode == Iterative {
		firstMode = OneStep
	}
	var ds *dirtySet
	if prev != nil {
		ds = e.newEcoPass(prev, 0, seed)
	} else {
		ds = e.newFullPass()
	}
	e.resetIntervals(prev == nil && mode == Iterative)
	e.finalQuietPrev, e.finalPassMode, e.finalPass = nil, firstMode, 0
	ph := e.beginPass(1, firstMode)
	st, err := e.sweep(firstMode, nil, ds)
	if err != nil {
		e.m.publish(&ds.tally) // a failed pass's work still counts
		return nil, 0, err
	}
	delay := e.endPass(ph, st, ds, eco)
	best := st
	passes := 1
	var qp [][2]float64 // the quiescent times the last pass classified against
	for mode == Iterative && passes < maxPasses {
		var next *dirtySet
		switch {
		case prev != nil:
			next = e.newEcoPass(prev, passes, seed)
			e.seedRefinementDirty(next, ds.changed)
		case passes == 1:
			next = e.newDeltaPass(st)
			e.seedPass2(next, st)
		default:
			next = e.newDeltaPass(st)
			e.seedFlips(next, qp, st, ds.changed)
		}
		ds = next
		qp = snapshotQuiet(st)
		ph := e.beginPass(passes+1, Iterative)
		st, err = e.sweep(Iterative, qp, ds)
		if err != nil {
			e.m.publish(&ds.tally)
			return nil, 0, err
		}
		passes++
		newDelay := e.endPass(ph, st, ds, eco)
		// delay is the lowest bound so far: the loop only continues on a
		// strict decrease.
		if newDelay <= delay {
			best = st
			e.finalQuietPrev, e.finalPassMode, e.finalPass = qp, Iterative, passes-1
		}
		if newDelay >= delay-1e-12 {
			break
		}
		delay = newDelay
	}
	return best, passes, nil
}

// sweep performs one breadth-first timing pass (§4/§5) over ds's
// recompute set. The mode fixes how coupling caps enter each arc's load:
//
//   - quietPrev == nil: first pass (or single-pass modes). In OneStep,
//     neighbors not yet calculated in this pass couple (worst case).
//   - quietPrev != nil: refinement pass (Iterative). Every neighbor has
//     a stored quiescent time, so no uncalculated-wire assumption is
//     needed (§5.2).
//
// Lines outside the recompute set carry ds.orig's state. A recomputed
// line whose state diverges from ds.orig is marked changed and grows the
// set through its fanout, before any dependent cell's bucket starts
// (see levels.go). Its work is tallied into ds.tally; the line tallies
// are taken once, at the pass barrier.
func (e *Engine) sweep(mode Mode, quietPrev [][2]float64, ds *dirtySet) ([]netState, error) {
	c := e.C
	st := make([]netState, len(c.Nets))
	carry := ds.orig != nil
	if carry {
		copy(st, ds.orig)
		for i := range st {
			if ds.dirty[i].Load() {
				st[i] = freshNetState()
			}
		}
	} else {
		for i := range st {
			st[i] = freshNetState()
		}
	}
	// diverged marks a recomputed line that no longer matches the
	// carried state and grows the set from it.
	diverged := func(net netlist.NetID) {
		if carry && !sameNetState(&st[net-1], &ds.orig[net-1]) {
			ds.changed[net-1] = true
			e.expand(ds, net)
		}
	}

	// Seed primary inputs: both transitions can occur at t = 0 with the
	// configured board-level slew. Reseeded unconditionally (cheap); a
	// slew edit shows up as divergence and dirties the fan-out.
	for _, pi := range c.PIs {
		slew := e.piSlewFor(pi)
		s := netState{calculated: true}
		for d := 0; d < 2; d++ {
			s.arrival[d] = 0
			s.slew[d] = slew
			s.quiet[d] = slew / 2
		}
		st[pi-1] = s
		diverged(pi)
	}

	// Phase 1: clock tree (cells whose output is a clock net), level
	// by level. Clock nets behave like any other net for coupling
	// purposes.
	doCell := func(cell *netlist.Cell, w *tally) error {
		if err := e.processCell(mode, st, quietPrev, cell, w); err != nil {
			return err
		}
		w.lines++
		diverged(cell.Out)
		return nil
	}
	if err := e.runPhase(phaseClock, ds, &ds.tally, doCell); err != nil {
		return nil, err
	}

	// Flip-flop outputs: launched by the rising clock edge at the
	// flip-flop's clock-pin arrival plus clock-to-Q. A clean Q of a
	// carrying set keeps the carried state: its launch reads only the
	// clock arrival, which did not diverge — otherwise the clock-sink
	// expansion would have dirtied it.
	var launches, kept int64
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		out := cell.Out
		if carry && !ds.dirty[out-1].Load() {
			kept++
			continue
		}
		launches++
		launch := e.launchTime(cell, func(clk netlist.NetID) float64 { return st[clk-1].arrival[dirRise] })
		s := netState{calculated: true} // a launch point: no predecessor
		for d := 0; d < 2; d++ {
			s.arrival[d] = launch
			s.slew[d] = dffOutSlew
			s.quiet[d] = launch + dffOutSlew/2
		}
		st[out-1] = s
		diverged(out)
	}

	// Phase 2: combinational sweep.
	if err := e.runPhase(phaseMain, ds, &ds.tally, doCell); err != nil {
		return nil, err
	}
	cells := int64(len(e.clockLv.cells) + len(e.mainLv.cells))
	ds.recomputed = ds.tally.lines + launches
	ds.carried = cells - ds.tally.lines + kept
	return st, nil
}

// launchTime is the launch of flip-flop cell: clock-to-Q after the
// rising clock edge reaches its clock pin. clockArr reads the clock
// net's rising arrival; a missing or unreached (infinite) clock
// launches at clock-to-Q.
func (e *Engine) launchTime(cell *netlist.Cell, clockArr func(netlist.NetID) float64) float64 {
	launch := ccc.DFFClkToQ()
	if cell.Clock != netlist.NoNet {
		if a := clockArr(cell.Clock); !math.IsInf(a, 0) {
			launch += a + e.sink.ClockDelay[cell.ID]
		}
	}
	return launch
}

// processCell evaluates all timing arcs of one cell and updates its
// output net's state, tallying the work into w.
func (e *Engine) processCell(mode Mode, st []netState, quietPrev [][2]float64, cell *netlist.Cell, w *tally) error {
	out := cell.Out
	s := &st[out-1]
	inf := &e.info[out-1]

	for dOut := 0; dOut < 2; dOut++ {
		dIn := 1 - dOut // inverting primitives
		bestArr := math.Inf(-1)
		bestSlew := 0.0
		bestPred := arcPred{}
		quiet := math.Inf(-1)
		// Gather the candidate pins first (in pin order — the argmax
		// below is first-wins on ties), so the tier-0 gate can reason
		// about the whole set before any arc is dispatched. Inputs are
		// strictly lower-rank, so their state is frozen by the time
		// this cell runs and gathering early reads the same values.
		var cbuf [4]t0Cand
		cands := cbuf[:0]
		for pin, inNet := range cell.In {
			is := &st[inNet-1]
			if !is.calculated || math.IsInf(is.arrival[dIn], -1) {
				continue
			}
			inArr := is.arrival[dIn]
			if !e.opts.PiModel {
				// Lumped model: the wire delay to this pin is the
				// Elmore term (paper §2); with the π-model the arrival
				// is already at the receiving end.
				inArr += e.sink.At(cell.ID, pin)
			}
			inSlew := is.slew[dIn]
			if inSlew <= 0 {
				inSlew = piSlew
			}
			cands = append(cands, t0Cand{pin: pin, inNet: inNet, inArr: inArr, inSlew: inSlew})
		}
		if e.t0 != nil {
			if e.t0.probe != nil {
				for i := range cands {
					c := &cands[i]
					c.res, c.exact = e.t0Probe(mode, st, quietPrev, cell, c.pin, dOut, c.inArr, c.inSlew, w)
				}
			}
			e.t0Gate(mode, cell, dOut, cands, w)
		}
		for i := range cands {
			c := &cands[i]
			if c.skip {
				continue
			}
			res := c.res
			if !c.exact {
				var t0a *t0Cand
				if c.bok {
					t0a = c
				}
				var err error
				if res, err = e.evalArc(mode, st, quietPrev, cell, c.pin, dOut, c.inArr, c.inSlew, t0a, w); err != nil {
					return err
				}
				if c.bok {
					e.t0Audit(c, res)
				}
			}
			arr := c.inArr + res.Delay
			if arr > bestArr {
				bestArr = arr
				bestSlew = res.OutSlew
				bestPred = arcPred{valid: true, cell: cell.ID, fromNet: c.inNet, fromDir: dIn}
			}
			if done := c.inArr + res.Completion; done > quiet {
				quiet = done
			}
		}
		if !math.IsInf(bestArr, -1) {
			s.arrival[dOut] = bestArr
			s.slew[dOut] = bestSlew
			s.quiet[dOut] = quiet
			if !e.opts.PiModel {
				s.quiet[dOut] += inf.maxSinkElmore
			}
			s.pred[dOut] = bestPred
		}
	}
	s.calculated = true
	return nil
}

// modeLoad is the load of the arc request a mode issues on a net before
// any coupling classification: the grounded capacitance and the
// actively coupling part. Best case grounds the coupling caps at face
// value, Static doubled at twice their value, Worst case couples them
// all; One-step and Iterative start from the best-case request.
func modeLoad(mode Mode, inf *netInfo) (grounded, cc float64) {
	switch mode {
	case StaticDoubled:
		return inf.baseCap + 2*inf.sumCc, 0
	case WorstCase:
		return inf.baseCap, inf.sumCc
	}
	return inf.baseCap + inf.sumCc, 0
}

// arcRequest is the delay-calculator request of one arc: input pin of
// cell switching its output in direction dOut at input slew inSlew,
// into grounded capacitance to ground plus cc of actively coupling
// capacitance. With pi (the π-model extension) half the wire cap stays
// at the driver and the rest of the grounded load moves behind the wire
// resistance; otherwise the whole load is lumped at the driver (paper
// §2).
func (e *Engine) arcRequest(cell *netlist.Cell, pin, dOut int, inSlew, grounded, cc float64, pi bool) delaycalc.Request {
	inf := &e.info[cell.Out-1]
	r := delaycalc.Request{
		Kind:     cell.Kind,
		NIn:      len(cell.In),
		Pin:      pin,
		Dir:      dirOf(dOut),
		InSlew:   inSlew,
		CLoad:    grounded,
		CCouple:  cc,
		SizeMult: inf.sizeMult,
	}
	if pi && inf.rwire > 0 {
		r.CLoad = inf.cwire / 2
		r.CFar = grounded - inf.cwire/2
		r.RWire = inf.rwire
	}
	return r
}

// evalArc computes one timing arc under the mode's coupling treatment.
// t0a, when non-nil, carries the arc's tier-0 bracket (see tier0.go):
// non-near-critical arcs may elide the best-case evaluation when the
// t_bcs bracket proves every coupling decision, and all final requests
// route through the cross-pass memo. Its work is tallied into w.
func (e *Engine) evalArc(mode Mode, st []netState, quietPrev [][2]float64,
	cell *netlist.Cell, pin, dOut int, inArr, inSlew float64, t0a *t0Cand, w *tally) (delaycalc.Result, error) {

	out := cell.Out
	inf := &e.info[out-1]
	pi := e.opts.PiModel
	if (mode != OneStep && mode != Iterative) || inf.sumCc == 0 {
		grounded, cc := modeLoad(mode, inf)
		return e.t0Eval(cell, pin, dOut, e.arcRequest(cell, pin, dOut, inSlew, grounded, cc, pi), w)
	}
	// Tier-0 elision: the best-case evaluation below exists only to fix
	// t_bcs for the coupling comparisons. If the t_bcs bracket
	// [inArr+TTRlo, inArr+TTRhi] classifies every neighbor the same way
	// on both ends, those decisions are proven without it and the final
	// request is issued directly. Any neighbor whose quiescent time lands
	// inside the bracket could flip — the flip guard — and forces the
	// exact path.
	if t0a != nil && !t0a.nearCrit {
		// An exact t_bcs already in the cache is free: elide only
		// without one.
		if slot := &e.bcs[e.arcSlot(out, pin, dOut)]; !slot.valid || slot.inSlew != inSlew {
			c, proven := e.classify(st, quietPrev, out, dOut, inArr+t0a.b.ttrLo, inArr+t0a.b.ttrHi, nil)
			switch {
			case proven && c.cc > 0:
				// Coupling decisions count only here — the bail paths
				// fall through to the exact classification, which
				// counts them itself.
				e.noteInterval(out, pin, dOut, inArr+t0a.b.ttrLo, inArr+t0a.b.ttrHi)
				w.couplingActive += c.nActive
				w.couplingGrounded += c.nGrounded
				w.tier0Hits++ // the elided best-case evaluation
				return e.t0Eval(cell, pin, dOut, e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+(inf.sumCc-c.cc), c.cc, pi), w)
			case proven:
				// All neighbors grounded: the exact path's single
				// best-case evaluation IS the result — nothing to
				// elide, fall through.
			default:
				w.tier0FlipGuards++
			}
		}
	}
	// Step 1 (§5.1): best-case waveform with all neighbors quiet fixes
	// t_bcs — the earliest the victim could reach Vth. The request
	// depends only on (cell, pin, dir, inSlew), so refinement passes
	// whose input slew is unchanged reuse the stored result.
	bcsRes, err := e.evalBCS(cell, pin, dOut, inSlew, e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0, pi), w)
	if err != nil {
		return delaycalc.Result{}, err
	}
	if t0a != nil && (bcsRes.TimeToRestart < t0a.b.ttrLo || bcsRes.TimeToRestart > t0a.b.ttrHi) {
		e.t0.taint.Store(true)
	}
	// Step 2: classify each adjacent wire.
	tBCS := inArr + bcsRes.TimeToRestart
	c, _ := e.classify(st, quietPrev, out, dOut, tBCS, tBCS, nil)
	e.noteInterval(out, pin, dOut, tBCS, tBCS)
	w.couplingActive += c.nActive
	w.couplingGrounded += c.nGrounded
	if c.cc == 0 {
		// Every neighbor is quiet: the worst-case request would carry
		// the full coupling capacitance grounded — electrically the
		// best-case request already computed. Skip the second Eval.
		w.zeroSkips++
		return bcsRes, nil
	}
	// Step 3: worst-case waveform with the active subset coupling.
	return e.t0Eval(cell, pin, dOut, e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+(inf.sumCc-c.cc), c.cc, pi), w)
}

// coupled is the outcome of one arc's coupling classification: the
// actively coupling capacitance and the per-decision neighbor counts.
type coupled struct {
	cc                 float64
	nActive, nGrounded int64
}

// classify applies the one-step rule (§5.1) to every neighbor coupled to
// out, for a victim switching in direction dOut whose t_bcs lies in
// [lo, hi]: a neighbor couples when it is not yet calculated or its
// opposite-transition quiescent time lies after hi, and is grounded
// when that time lies at or before lo. A neighbor quiet inside (lo, hi]
// could go either way; classify then stops and reports the decisions
// unproven, which never happens for an exact t_bcs (lo == hi). active,
// when non-nil, receives the coupling-CSR index of every actively
// coupling neighbor.
func (e *Engine) classify(st []netState, quietPrev [][2]float64, out netlist.NetID, dOut int,
	lo, hi float64, active func(k int32)) (c coupled, proven bool) {

	dAggressor := 1 - dOut // opposite transition couples
	ccNbr, ccC := e.cc.Nbr, e.cc.C
	first, end := e.cc.Span(out)
	for k := first; k < end; k++ {
		other := ccNbr[k]
		var calculated bool
		var quietAt float64
		if quietPrev != nil {
			// Every neighbor has a stored quiescent time; one that never
			// switches in that direction (−Inf) cannot couple.
			calculated = true
			quietAt = quietPrev[other-1][dAggressor]
		} else {
			// Level-based rule (order-independent; see levels.go): a
			// neighbor is calculated when its driver's level is strictly
			// below this cell's, so its state is frozen.
			calculated = e.netCalculatedAt(other, e.netRank[out])
			if calculated {
				quietAt = st[other-1].quiet[dAggressor]
			}
		}
		switch {
		case coupling.ShouldCouple(calculated, quietAt, hi):
			c.cc += ccC[k]
			c.nActive++
			if active != nil {
				active(k)
			}
		case quietAt > lo:
			return c, false
		default:
			c.nGrounded++
		}
	}
	return c, true
}

// bcsEntry is one cached best-case arc result (see Engine.bcs); probed
// marks one a tier-0 probe filled (t0Probe).
type bcsEntry struct {
	inSlew float64
	res    delaycalc.Result
	valid  bool
	probed bool
}

// evalBCS evaluates the best-case (all-quiet) arc request, reusing the
// result stored by an earlier pass when the exact input slew repeats —
// the §5.2 refinement loop otherwise pays two evaluator calls per arc
// per pass. The reuse decision depends only on per-arc values, so
// parallel and sequential sweeps skip identically.
func (e *Engine) evalBCS(cell *netlist.Cell, pin, dOut int, inSlew float64, req delaycalc.Request, w *tally) (delaycalc.Result, error) {
	slot := &e.bcs[e.arcSlot(cell.Out, pin, dOut)]
	if slot.valid && slot.inSlew == inSlew {
		w.tbcsHits++
		return slot.res, nil
	}
	res, err := e.eval(req, w)
	if err != nil {
		return res, err
	}
	*slot = bcsEntry{inSlew: inSlew, res: res, valid: true}
	return res, nil
}

// eval is the sweep's evaluator call, its work tallied into w.
func (e *Engine) eval(req delaycalc.Request, w *tally) (delaycalc.Result, error) {
	res, info, err := e.Calc.EvalInfo(req)
	w.addInfo(info)
	return res, err
}
