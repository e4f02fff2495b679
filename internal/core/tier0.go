package core

// Tiered delay evaluation (DESIGN.md §14). With Options.Tier0 the
// engine brackets every candidate arc analytically (delaycalc's
// Tier0Bounds) before dispatching it to the exact Newton evaluator,
// and uses the brackets three ways — all of them provably result-
// preserving, so the longest path is Float64bits-identical to the
// all-Newton run:
//
//  1. Pin dominance: a candidate pin whose bracketed arrival AND
//     completion upper bounds fall strictly below another pin's lower
//     bounds can never win processCell's argmax (nor raise the
//     quiescent max) and is skipped without evaluation.
//  2. BCS elision (OneStep/Iterative): when the t_bcs bracket
//     [inArr+TTRlo, inArr+TTRhi] classifies every coupled neighbor the
//     same way on both ends, the coupling decisions are proven and the
//     best-case evaluation that only existed to fix t_bcs is skipped.
//     A neighbor whose quiescent time lands inside the bracket could
//     flip the decision — the flip guard — and forces the exact path.
//  3. Arc memo: the final request of each (cell, pin, dir) slot is
//     remembered across refinement passes; an identical request reuses
//     the stored result (the evaluator is deterministic), which
//     collapses the recompute passes of converged logic.
//
// The margin gate is pure dispatch policy on top: an arc whose arrival
// upper bound reaches within tier0Margin of the analytic longest-path
// frontier at its rank is near-critical and always dispatched exactly
// (no dominance, no elision) — the ISSUE-level contract that tier-0
// never touches the critical region. Exactness never rests on the
// frontier, only on the bracket proofs above; and because the
// envelopes behind the brackets are calibrated rather than derived,
// every evaluated arc is audited against its bracket and a violation
// taints the run, which is then discarded and re-run all-Newton.
//
// Tier-0 is disabled on seeded re-analysis (the base run has just
// characterized nearly every request, so tier-0 would skip little but
// cache hits, yet pay a whole-design frontier sweep and a bracket per
// dirty candidate) and when the evaluator cannot bound arcs.

import (
	"math"
	"sync/atomic"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// tier0Run is the per-analysis state of the tiered dispatcher. Built
// fresh by setupTier0 before the passes run; nil when tier-0 is off.
type tier0Run struct {
	margin float64
	be     delaycalc.BoundsEvaluator
	// frontier[r] is the analytic longest-arrival estimate at net rank
	// r, prefix-maxed so it is monotone in rank (the "current
	// longest-path arrival at its rank" the margin gate compares
	// against). Estimates, not bounds: the gate is policy, not proof.
	frontier []float64
	// memo caches the final arc request and result, and the last
	// bracket, per arc: a slab over the snapshot's arc index, like
	// Engine.bcs. Exactly one worker owns a cell within a pass and passes
	// are barrier-separated, so the slots need no locking.
	memo []arcMemo
	// taint records a bracket violation observed on an evaluated arc.
	// The run's results are then discarded and recomputed all-Newton.
	taint atomic.Bool
}

// arcMemo is one slot of tier0Run.memo: the remembered final arc
// evaluation (valid once filled) and the bracket t0Gate last computed
// for the slot, at input slew bSlew (bSet once filled). t0ArcBounds is
// a pure function of the session's snapshot, the mode class, the slot
// and the slew, and one analysis runs one mode class (OneStep and
// Iterative issue the same configurations), so a bit-equal slew reuses
// the bracket exactly.
type arcMemo struct {
	req   delaycalc.Request
	res   delaycalc.Result
	b     arcBounds
	bSlew float64
	valid bool
	bok   bool
	bSet  bool
}

// arcBounds brackets one candidate arc under the mode's possible load
// configurations (see t0ArcBounds). ttr is bracketed under the
// best-case (all-grounded) configuration only — the one evalBCS uses.
type arcBounds struct {
	delayLo, delayHi float64
	slewLo, slewHi   float64
	compLo, compHi   float64
	ttrLo, ttrHi     float64
}

// t0Cand is one gathered candidate pin of processCell's per-direction
// argmax, annotated by t0Gate with its bracket and dispatch decision.
type t0Cand struct {
	pin      int
	inNet    netlist.NetID
	inArr    float64
	inSlew   float64
	b        arcBounds
	bok      bool
	nearCrit bool
	skip     bool
}

// setupTier0 (re)builds the tier-0 dispatcher state for one analysis,
// or clears it when the options, a seeded run or the evaluator rule
// tier-0 out.
func (e *Engine) setupTier0(seeded bool) error {
	e.t0 = nil
	e.tier0Rerun = false
	if !e.opts.Tier0 || seeded {
		return nil
	}
	be, ok := e.Calc.(delaycalc.BoundsEvaluator)
	if !ok {
		return nil
	}
	e.t0 = &tier0Run{margin: e.tier0Margin, be: be, memo: make([]arcMemo, e.arcs())}
	return e.t0Frontier()
}

// t0Frontier sweeps the circuit once with analytic band-midpoint
// estimates — no evaluator calls — to build the per-rank arrival
// frontier the margin gate compares against. It follows the timing
// sweep's phase order (PI seeding, clock phase, DFF launch, main phase)
// on the same executor, then takes each rank's maximum estimate in one
// sequential pass, so the frontier is deterministic under any worker
// count.
func (e *Engine) t0Frontier() error {
	c := e.C
	n := len(c.Nets)
	arr := make([][2]float64, n)
	slw := make([][2]float64, n)
	for i := range arr {
		arr[i] = [2]float64{math.Inf(-1), math.Inf(-1)}
	}
	for _, pi := range c.PIs {
		slew := e.piSlewFor(pi)
		arr[pi-1] = [2]float64{0, 0}
		slw[pi-1] = [2]float64{slew, slew}
	}

	est := func(cell *netlist.Cell, _ *tally) error {
		out := cell.Out
		for dOut := 0; dOut < 2; dOut++ {
			dIn := 1 - dOut
			best := math.Inf(-1)
			bslew := 0.0
			for pin, inNet := range cell.In {
				if math.IsInf(arr[inNet-1][dIn], -1) {
					continue
				}
				inArr := arr[inNet-1][dIn]
				if !e.opts.PiModel {
					inArr += e.sink.At(cell.ID, pin)
				}
				inSlew := slw[inNet-1][dIn]
				if inSlew <= 0 {
					inSlew = piSlew
				}
				d, os := 0.0, inSlew
				if b, ok := e.t0ArcBounds(e.opts.Mode, cell, pin, dOut, inSlew); ok {
					d = (b.delayLo + b.delayHi) / 2
					os = (b.slewLo + b.slewHi) / 2
				}
				if a := inArr + d; a > best {
					best = a
					bslew = os
				}
			}
			if !math.IsInf(best, -1) {
				arr[out-1][dOut] = best
				slw[out-1][dOut] = bslew
			}
		}
		return nil
	}
	// The estimates call no evaluator: their tally stays empty.
	if err := e.runPhase(phaseClock, nil, new(tally), est); err != nil {
		return err
	}
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		launch := e.launchTime(cell, func(clk netlist.NetID) float64 { return arr[clk-1][dirRise] })
		arr[cell.Out-1] = [2]float64{launch, launch}
		slw[cell.Out-1] = [2]float64{dffOutSlew, dffOutSlew}
	}
	if err := e.runPhase(phaseMain, nil, new(tally), est); err != nil {
		return err
	}

	maxRank := 0
	for _, r := range e.netRank {
		maxRank = max(maxRank, r)
	}
	frontier := make([]float64, maxRank+1)
	for i := range frontier {
		frontier[i] = math.Inf(-1)
	}
	for i := range arr {
		if r := e.netRank[i+1]; r >= 0 {
			frontier[r] = math.Max(frontier[r], math.Max(arr[i][0], arr[i][1]))
		}
	}
	for i := 1; i < len(frontier); i++ {
		frontier[i] = math.Max(frontier[i], frontier[i-1])
	}
	e.t0.frontier = frontier
	return nil
}

// nearCritical applies the margin gate: an arc whose bracketed arrival
// upper bound hi reaches within margin of the frontier at its output's
// rank (or whose frontier is unknown) is dispatched exactly.
func (t0 *tier0Run) nearCritical(rank int, hi float64) bool {
	if rank < 0 || rank >= len(t0.frontier) {
		return true
	}
	f := t0.frontier[rank]
	if math.IsInf(f, -1) || f <= 0 {
		return true
	}
	return hi >= (1-t0.margin)*f
}

// t0ArcBounds brackets one arc over every load configuration the mode
// can issue for it, merging the per-configuration brackets: Best,
// StaticDoubled and WorstCase each issue exactly one request shape;
// OneStep/Iterative issue the all-grounded best-case request plus a
// coupled request anywhere between "almost all grounded" and "all
// coupling active", so the bracket is the hull of the two extremes
// (the intermediate-coupling soundness of that hull is pinned by
// TestTier0ArcHullSound). ok=false whenever any configuration cannot
// be bounded — tier-0 then stays off for the arc.
func (e *Engine) t0ArcBounds(mode Mode, cell *netlist.Cell, pin, dOut int, inSlew float64) (arcBounds, bool) {
	inf := &e.info[cell.Out-1]
	grounded, cc := modeLoad(mode, inf)
	configs := [2]delaycalc.Request{e.arcRequest(cell, pin, dOut, inSlew, grounded, cc, e.opts.PiModel)}
	nc := 1
	if (mode == OneStep || mode == Iterative) && inf.sumCc > 0 {
		configs[1] = e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap, inf.sumCc, e.opts.PiModel)
		nc = 2
	}
	var ab arcBounds
	for i := 0; i < nc; i++ {
		b, ok := e.t0.be.Tier0Bounds(configs[i])
		if !ok {
			return arcBounds{}, false
		}
		if i == 0 {
			ab = arcBounds{
				delayLo: b.DelayLo, delayHi: b.DelayHi,
				slewLo: b.SlewLo, slewHi: b.SlewHi,
				compLo: b.CompletionLo, compHi: b.CompletionHi,
				ttrLo: b.TTRLo, ttrHi: b.TTRHi,
			}
			continue
		}
		ab.delayLo = math.Min(ab.delayLo, b.DelayLo)
		ab.delayHi = math.Max(ab.delayHi, b.DelayHi)
		ab.slewLo = math.Min(ab.slewLo, b.SlewLo)
		ab.slewHi = math.Max(ab.slewHi, b.SlewHi)
		ab.compLo = math.Min(ab.compLo, b.CompletionLo)
		ab.compHi = math.Max(ab.compHi, b.CompletionHi)
		// ttr stays the best-case configuration's: that is the request
		// whose TimeToRestart fixes t_bcs.
	}
	return ab, true
}

// t0Gate annotates processCell's gathered candidates with brackets,
// applies the margin gate, and marks the dominance skips. A pin is
// skipped only when its bracketed arrival AND completion upper bounds
// fall strictly below another bounded pin's lower bounds: the witness
// achieving the lower-bound maximum can itself never satisfy that
// strict inequality, so every skip leaves an evaluated witness that
// realizes a higher arrival (and completion) than the skipped pin
// could — processCell's first-pin-wins argmax, its quiescent max and
// the predecessor choice are all preserved bit-exactly.
func (e *Engine) t0Gate(mode Mode, cell *netlist.Cell, dOut int, cands []t0Cand, w *tally) {
	t0 := e.t0
	outRank := e.netRank[cell.Out]
	arrTop := [2]float64{math.Inf(-1), math.Inf(-1)}
	compTop := [2]float64{math.Inf(-1), math.Inf(-1)}
	arrIdx, compIdx := -1, -1
	for i := range cands {
		c := &cands[i]
		slot := &t0.memo[e.arcSlot(cell.Out, c.pin, dOut)]
		if !slot.bSet || math.Float64bits(slot.bSlew) != math.Float64bits(c.inSlew) {
			slot.b, slot.bok = e.t0ArcBounds(mode, cell, c.pin, dOut, c.inSlew)
			slot.bSlew, slot.bSet = c.inSlew, true
		}
		c.b, c.bok = slot.b, slot.bok
		if !c.bok {
			continue
		}
		c.nearCrit = t0.nearCritical(outRank, c.inArr+c.b.delayHi)
		if v := c.inArr + c.b.delayLo; v > arrTop[0] {
			arrTop[1], arrTop[0], arrIdx = arrTop[0], v, i
		} else if v > arrTop[1] {
			arrTop[1] = v
		}
		if v := c.inArr + c.b.compLo; v > compTop[0] {
			compTop[1], compTop[0], compIdx = compTop[0], v, i
		} else if v > compTop[1] {
			compTop[1] = v
		}
	}
	for i := range cands {
		c := &cands[i]
		if !c.bok || c.nearCrit {
			w.tier0Fallbacks++
			continue
		}
		maxArr, maxComp := arrTop[0], compTop[0]
		if i == arrIdx {
			maxArr = arrTop[1]
		}
		if i == compIdx {
			maxComp = compTop[1]
		}
		if c.inArr+c.b.delayHi < maxArr && c.inArr+c.b.compHi < maxComp {
			c.skip = true
			w.tier0Hits++
		}
	}
}

// t0Eval evaluates a final arc request through the cross-pass memo:
// an identical request reuses the stored result (the evaluator is
// deterministic, so the reuse is exact, and tallied as a tier-0 hit),
// anything else evaluates and stores. With tier-0 off this is eval.
func (e *Engine) t0Eval(cell *netlist.Cell, pin, dOut int, req delaycalc.Request, w *tally) (delaycalc.Result, error) {
	t0 := e.t0
	if t0 == nil {
		return e.eval(req, w)
	}
	slot := &t0.memo[e.arcSlot(cell.Out, pin, dOut)]
	if slot.valid && slot.req == req {
		w.tier0Hits++
		return slot.res, nil
	}
	res, err := e.eval(req, w)
	if err != nil {
		return res, err
	}
	*slot = arcMemo{req: req, res: res, valid: true}
	return res, nil
}

// t0Audit checks an evaluated result against the bracket tier-0
// reasoned with; a violation means the calibrated envelopes broke
// their contract and the run's pruning can no longer be trusted.
func (e *Engine) t0Audit(c *t0Cand, res delaycalc.Result) {
	if res.Delay < c.b.delayLo || res.Delay > c.b.delayHi ||
		res.OutSlew < c.b.slewLo || res.OutSlew > c.b.slewHi ||
		res.Completion < c.b.compLo || res.Completion > c.b.compHi {
		e.t0.taint.Store(true)
	}
}

// discardTainted reports whether a tier-0 bracket violated its contract
// during the run just finished. If so the run's pruning can no longer
// be trusted: its state is discarded, tier-0 is switched off and the
// rerun is recorded (Result.Tier0Rerun, tier0_reruns_total), so the
// caller recomputes all-Newton — bit parity is preserved even when
// calibration breaks, and the doubled cost is never silent.
func (e *Engine) discardTainted() bool {
	if e.t0 == nil || !e.t0.taint.Load() {
		return false
	}
	e.passStats = nil
	e.replayPasses = nil
	e.work.tier0Hits, e.work.tier0Fallbacks, e.work.tier0FlipGuards = 0, 0, 0
	e.t0 = nil
	e.tier0Rerun = true
	e.m.tier0Reruns.Inc()
	return true
}
