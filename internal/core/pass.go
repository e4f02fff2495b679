package core

import (
	"fmt"
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// pass performs one full breadth-first timing sweep (§4/§5). The mode
// fixes how coupling caps enter each arc's load:
//
//   - quietPrev == nil: first pass (or single-pass modes). In OneStep,
//     neighbors not yet calculated in this pass couple (worst case).
//   - quietPrev != nil: refinement pass (Iterative). Every neighbor has
//     a stored quiescent time, so no uncalculated-wire assumption is
//     needed (§5.2).
//
// critical (optional) limits recalculation to flagged nets (Esperance);
// skipped nets carry their state over from prev so downstream cells
// still see valid (conservative) arrivals.
func (e *Engine) pass(mode Mode, quietPrev [][2]float64, critical []bool, prev []netState) ([]netState, error) {
	c := e.C
	st := e.getState()
	for i := range st {
		if critical != nil && !critical[i] && prev != nil && prev[i].calculated {
			st[i] = prev[i]
			continue
		}
		st[i] = freshNetState()
	}

	// Seed primary inputs: both transitions can occur at t = 0 with the
	// configured board-level slew.
	for _, pi := range c.PIs {
		s := &st[pi-1]
		slew := e.piSlewFor(pi)
		for d := 0; d < 2; d++ {
			s.arrival[d] = 0
			s.slew[d] = slew
			s.quiet[d] = slew / 2
		}
		s.calculated = true
	}

	// Phase 1: clock tree (cells whose output is a clock net), level
	// by level. Clock nets behave like any other net for coupling
	// purposes.
	doCell := func(cell *netlist.Cell) error {
		return e.processCell(mode, st, quietPrev, critical, cell)
	}
	if err := e.runPhase(phaseClock, doCell, nil); err != nil {
		return nil, err
	}

	// Seed flip-flop outputs: launched by the rising clock edge at the
	// flip-flop's clock-pin arrival plus clock-to-Q.
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		launch := ccc.DFFClkToQ()
		if cell.Clock != netlist.NoNet {
			cs := &st[cell.Clock-1]
			if cs.calculated && !math.IsInf(cs.arrival[dirRise], -1) {
				launch += cs.arrival[dirRise] + e.sink.ClockDelay[cell.ID]
			}
		}
		s := &st[cell.Out-1]
		for d := 0; d < 2; d++ {
			if launch > s.arrival[d] {
				s.arrival[d] = launch
				s.slew[d] = e.opts.DFFOutSlew
				s.quiet[d] = launch + e.opts.DFFOutSlew/2
				s.pred[d] = arcPred{} // launch point
			}
		}
		s.calculated = true
	}

	// Phase 2: combinational sweep.
	if err := e.runPhase(phaseMain, doCell, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// processCell evaluates all timing arcs of one cell and updates its
// output net's state.
func (e *Engine) processCell(mode Mode, st []netState, quietPrev [][2]float64, critical []bool, cell *netlist.Cell) error {
	out := cell.Out
	s := &st[out-1]
	inf := &e.info[out-1]

	if critical != nil && !critical[out-1] {
		// Esperance skip: the net keeps the previous pass's state
		// (seeded in pass), which is a valid upper bound.
		e.passSkips.Add(1)
		e.m.esperanceSkips.Inc()
		return nil
	}
	e.passRecalc.Add(1)
	e.m.recalcWires.Inc()

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
				inSlew = e.opts.PISlew
			}
			cands = append(cands, t0Cand{pin: pin, inNet: inNet, inArr: inArr, inSlew: inSlew})
		}
		if e.t0 != nil {
			e.t0Gate(mode, cell, dOut, cands)
		}
		for i := range cands {
			c := &cands[i]
			if c.skip {
				continue
			}
			var t0a *t0Cand
			if c.bok {
				t0a = c
			}
			res, err := e.evalArc(mode, st, quietPrev, cell, c.pin, dOut, c.inArr, c.inSlew, t0a)
			if err != nil {
				return err
			}
			if c.bok {
				e.t0Audit(c, res)
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

// evalArc computes one timing arc under the mode's coupling treatment.
// t0a, when non-nil, carries the arc's tier-0 bracket (see tier0.go):
// non-near-critical arcs may elide the best-case evaluation when the
// t_bcs bracket proves every coupling decision, and all final requests
// route through the cross-pass memo.
func (e *Engine) evalArc(mode Mode, st []netState, quietPrev [][2]float64,
	cell *netlist.Cell, pin, dOut int, inArr, inSlew float64, t0a *t0Cand) (delaycalc.Result, error) {

	out := cell.Out
	inf := &e.info[out-1]
	req := delaycalc.Request{
		Kind:     cell.Kind,
		NIn:      len(cell.In),
		Pin:      pin,
		Dir:      dirOf(dOut),
		InSlew:   inSlew,
		SizeMult: inf.sizeMult,
	}
	// load splits a grounded load between the request's near and far
	// fields. Lumped (paper): everything in CLoad. π-model extension:
	// half the wire cap stays at the driver, the rest moves behind the
	// wire resistance.
	load := func(r *delaycalc.Request, grounded float64) {
		if e.opts.PiModel && inf.rwire > 0 {
			r.CLoad = inf.cwire / 2
			r.CFar = grounded - inf.cwire/2
			r.RWire = inf.rwire
			return
		}
		r.CLoad = grounded
	}

	switch mode {
	case BestCase:
		load(&req, inf.baseCap+inf.sumCc)
		return e.t0Eval(cell, pin, dOut, req)
	case StaticDoubled:
		load(&req, inf.baseCap+2*inf.sumCc)
		return e.t0Eval(cell, pin, dOut, req)
	case WorstCase:
		load(&req, inf.baseCap)
		req.CCouple = inf.sumCc
		return e.t0Eval(cell, pin, dOut, req)
	case OneStep, Iterative:
		if inf.sumCc == 0 {
			load(&req, inf.baseCap)
			return e.t0Eval(cell, pin, dOut, req)
		}
		// Tier-0 elision: the best-case evaluation below exists only to
		// fix t_bcs for the coupling comparisons. If the t_bcs bracket
		// [inArr+TTRlo, inArr+TTRhi] classifies every neighbor the same
		// way on both ends, those decisions are proven without it and
		// the final request is issued directly. Any neighbor whose
		// quiescent time lands inside the bracket could flip — the flip
		// guard — and forces the exact path. Windows mode is ruled out
		// by setupTier0, so its pruning test never applies here.
		if t0a != nil && !t0a.nearCrit {
			// An exact t_bcs already in the cache is free: elide only
			// without one.
			if slot := &e.bcs[out-1][pin*2+dOut]; !slot.valid || slot.inSlew != inSlew {
				tbcsLo, tbcsHi := inArr+t0a.b.ttrLo, inArr+t0a.b.ttrHi
				dAgg := 1 - dOut
				proven := true
				ccActive := 0.0
				nCouple, nGround := 0, 0
				ccNbr, ccC := e.cc.Nbr, e.cc.C
				for k := inf.ccLo; k < inf.ccHi; k++ {
					other := ccNbr[k]
					var calculated bool
					var quietAt float64
					if quietPrev != nil {
						calculated = true
						quietAt = quietPrev[other-1][dAgg]
					} else {
						calculated = e.netCalculatedAt(other, e.netRank[out])
						if calculated {
							quietAt = st[other-1].quiet[dAgg]
						}
					}
					// ShouldCouple(calculated, quietAt, t) over the whole
					// bracket: couples for every t iff uncalculated or
					// quiet after the latest t_bcs; grounded for every t
					// iff quiet before the earliest.
					switch {
					case !calculated || quietAt > tbcsHi:
						ccActive += ccC[k]
						nCouple++
					case quietAt <= tbcsLo:
						nGround++
					default:
						proven = false
					}
					if !proven {
						break
					}
				}
				switch {
				case proven && ccActive > 0:
					// Coupling metrics commit only here — the bail paths
					// fall through to the exact classification, which
					// counts them itself.
					e.m.couplingActive.Add(int64(nCouple))
					e.m.couplingGrounded.Add(int64(nGround))
					e.t0.hits.Add(1) // the elided best-case evaluation
					e.m.tier0Hits.Inc()
					load(&req, inf.baseCap+(inf.sumCc-ccActive))
					req.CCouple = ccActive
					return e.t0Eval(cell, pin, dOut, req)
				case proven:
					// All neighbors grounded: the exact path's single
					// best-case evaluation IS the result — nothing to
					// elide, fall through.
				default:
					e.t0.flipGuards.Add(1)
					e.m.tier0FlipGuards.Inc()
				}
			}
		}
		// Step 1 (§5.1): best-case waveform with all neighbors quiet
		// fixes t_bcs — the earliest the victim could reach Vth. The
		// request depends only on (cell, pin, dir, inSlew), so refinement
		// passes whose input slew is unchanged reuse the stored result.
		bcs := req
		load(&bcs, inf.baseCap+inf.sumCc)
		bcsRes, err := e.evalBCS(cell, pin, dOut, inSlew, bcs)
		if err != nil {
			return delaycalc.Result{}, err
		}
		if t0a != nil && (bcsRes.TimeToRestart < t0a.b.ttrLo || bcsRes.TimeToRestart > t0a.b.ttrHi) {
			e.t0.taint.Store(true)
		}
		tBCS := inArr + bcsRes.TimeToRestart

		// Step 2: classify each adjacent wire.
		dAggressor := 1 - dOut // opposite transition couples
		// Windows extension: the victim is only sensitive until its own
		// previous-pass quiescent time.
		victimQuiet := math.Inf(1)
		if e.earliestStart != nil && quietPrev != nil {
			if q := quietPrev[out-1][dOut]; !math.IsInf(q, -1) {
				victimQuiet = q
			}
		}
		ccActive := 0.0
		ccNbr, ccC := e.cc.Nbr, e.cc.C
		for k := inf.ccLo; k < inf.ccHi; k++ {
			other := ccNbr[k]
			var calculated bool
			var quietAt float64
			if quietPrev != nil {
				calculated = true
				quietAt = quietPrev[other-1][dAggressor]
				if math.IsInf(quietAt, -1) {
					// The neighbor never switches in that direction:
					// it cannot couple.
					calculated, quietAt = true, math.Inf(-1)
				}
			} else {
				// Level-based rule (order-independent; see levels.go):
				// a neighbor is calculated when its driver's level is
				// strictly below this cell's, so its state is frozen.
				calculated = e.netCalculatedAt(other, e.netRank[out])
				if calculated {
					quietAt = st[other-1].quiet[dAggressor]
				}
			}
			couples := coupling.ShouldCouple(calculated, quietAt, tBCS)
			pruned := false
			if couples && e.earliestStart != nil && quietPrev != nil {
				// Windows extension: an aggressor that cannot become
				// active before the victim is done cannot couple.
				if e.earliestStart[other-1][dAggressor] >= victimQuiet {
					couples, pruned = false, true
				}
			}
			switch {
			case couples:
				ccActive += ccC[k]
				e.m.couplingActive.Inc()
			case pruned:
				e.m.couplingWindowPruned.Inc()
			default:
				e.m.couplingGrounded.Inc()
			}
		}
		if ccActive == 0 {
			// Every neighbor is quiet: the worst-case request would carry
			// the full coupling capacitance grounded — electrically the
			// best-case request already computed. Skip the second Eval.
			e.m.ccZeroSkips.Inc()
			return bcsRes, nil
		}
		// Step 3: worst-case waveform with the active subset coupling.
		load(&req, inf.baseCap+(inf.sumCc-ccActive))
		req.CCouple = ccActive
		return e.t0Eval(cell, pin, dOut, req)
	}
	return delaycalc.Result{}, fmt.Errorf("core: evalArc: unknown mode %d", int(mode))
}

// bcsEntry is one cached best-case arc result (see Engine.bcs).
type bcsEntry struct {
	inSlew float64
	res    delaycalc.Result
	valid  bool
}

// evalBCS evaluates the best-case (all-quiet) arc request, reusing the
// result stored by an earlier pass when the exact input slew repeats —
// the §5.2 refinement loop otherwise pays two evaluator calls per arc
// per pass. The reuse decision depends only on per-arc values, so
// parallel and sequential sweeps skip identically.
func (e *Engine) evalBCS(cell *netlist.Cell, pin, dOut int, inSlew float64, req delaycalc.Request) (delaycalc.Result, error) {
	slot := &e.bcs[cell.Out-1][pin*2+dOut]
	if slot.valid && slot.inSlew == inSlew {
		e.m.tbcsHits.Inc()
		return slot.res, nil
	}
	res, err := e.Calc.Eval(req)
	if err != nil {
		return res, err
	}
	*slot = bcsEntry{inSlew: inSlew, res: res, valid: true}
	return res, nil
}
