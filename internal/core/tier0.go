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
// Before it brackets, the dispatcher probes: when the evaluator has a
// hit-only cache lookup (cacheProbe), each candidate first takes
// evalArc's steps with the lookup in place of the evaluator, against the
// cache as it stood when the run began (its horizon). A candidate the
// probe answers is exact: its result is used as is and acts as a
// zero-width bracket in the dominance check. Only the misses are
// bracketed, margin-gated and audited. A run that begins on an empty
// cache probes nothing, so it makes exactly the decisions it would
// without the probe, and the horizon keeps a warm run's decisions the
// same under any worker count.
//
// Tier-0 is disabled on seeded re-analysis (the base run has just
// characterized nearly every request, so tier-0 would skip little but
// cache hits, yet pay a bracket per dirty candidate) and when the
// evaluator cannot bound arcs.

import (
	"math"
	"sync"
	"sync/atomic"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// cacheProbe is the hit-only lookup of a characterization cache that
// tier-0 probes before it brackets: the delaycalc.Calculator's.
type cacheProbe interface {
	// Horizon returns the number of entries stored since the cache was
	// created or last cleared: 0 when it is empty.
	Horizon() int64
	// Cached returns the entry of r stored at or before horizon,
	// counting it as one request and one cache hit; it never simulates.
	Cached(r delaycalc.Request, horizon int64) (delaycalc.Result, bool)
}

// tier0Run is the per-analysis state of the tiered dispatcher. Built
// fresh by setupTier0 before the passes run; nil when tier-0 is off.
type tier0Run struct {
	margin float64
	be     delaycalc.BoundsEvaluator
	// probe is the evaluator's cache lookup (nil without one), asked
	// only for entries stored at or before horizon, the cache's
	// Horizon when the run began.
	probe   cacheProbe
	horizon int64
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
// evaluation (valid once filled; probed when a probe filled it) and the
// bracket t0Gate last computed for the slot, at input slew bSlew (bSet
// once filled). t0ArcBounds is a pure function of the session's
// snapshot, the mode class, the slot and the slew, and one analysis
// runs one mode class (OneStep and Iterative issue the same
// configurations), so a bit-equal slew reuses the bracket exactly.
type arcMemo struct {
	req    delaycalc.Request
	res    delaycalc.Result
	b      arcBounds
	bSlew  float64
	valid  bool
	probed bool
	bok    bool
	bSet   bool
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
// argmax: exact with its result res when the probe answered it, else
// annotated by t0Gate with its bracket and dispatch decision.
type t0Cand struct {
	pin      int
	inNet    netlist.NetID
	inArr    float64
	inSlew   float64
	exact    bool
	res      delaycalc.Result
	b        arcBounds
	bok      bool
	nearCrit bool
	skip     bool
}

// modeClasses counts the request shapes t0ArcBounds brackets: one per
// mode, OneStep and Iterative sharing theirs.
const modeClasses = int(OneStep) + 1

// frontierMemo holds a snapshot's tier-0 frontier per mode class.
// The frontier is a function of the snapshot and the mode class only
// (the snapshot is bound to its calculator's process and sizing), and
// it is policy, not proof, so every session of the class may share the
// one the first computed.
type frontierMemo struct {
	once     [modeClasses]sync.Once
	frontier [modeClasses][]float64
}

// setupTier0 (re)builds the tier-0 dispatcher state for one analysis,
// or clears it when the options, a seeded run or the evaluator rule
// tier-0 out. It records the cache horizon the run's probes read, and
// takes the frontier from the snapshot's memo, computing it on the
// first use of the mode class.
func (e *Engine) setupTier0(seeded bool) {
	e.t0 = nil
	e.tier0Rerun = false
	if !e.opts.Tier0 || seeded {
		return
	}
	be, ok := e.Calc.(delaycalc.BoundsEvaluator)
	if !ok {
		return
	}
	e.t0 = &tier0Run{margin: e.tier0Margin, be: be, memo: make([]arcMemo, e.arcs())}
	if p, ok := e.Calc.(cacheProbe); ok {
		// An empty cache has nothing to serve: the run brackets every
		// candidate, without probing.
		if h := p.Horizon(); h > 0 {
			e.t0.probe, e.t0.horizon = p, h
		}
	}
	cls, fm := min(int(e.opts.Mode), int(OneStep)), e.frontiers
	fm.once[cls].Do(func() { fm.frontier[cls] = e.t0Frontier() })
	e.t0.frontier = fm.frontier[cls]
}

// t0Frontier sweeps the circuit once with analytic band-midpoint
// estimates — no evaluator calls — to build the per-rank arrival
// frontier the margin gate compares against. It follows the timing
// sweep's phase order (PI seeding, clock phase, DFF launch, main phase)
// on the same executor, then takes each rank's maximum estimate in one
// sequential pass, so the frontier is deterministic under any worker
// count.
func (e *Engine) t0Frontier() []float64 {
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
	// The estimates call no evaluator, so their tally stays empty, and
	// never fail, so neither do the phases.
	_ = e.runPhase(phaseClock, nil, new(tally), est)
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		launch := e.launchTime(cell, func(clk netlist.NetID) float64 { return arr[clk-1][dirRise] })
		arr[cell.Out-1] = [2]float64{launch, launch}
		slw[cell.Out-1] = [2]float64{dffOutSlew, dffOutSlew}
	}
	_ = e.runPhase(phaseMain, nil, new(tally), est)

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
	return frontier
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
// applies the margin gate, and marks the dominance skips. A candidate
// the probe answered is its own zero-width bracket, never gated or
// skipped. A pin is skipped only when its bracketed arrival AND
// completion upper bounds fall strictly below another bounded pin's
// lower bounds: the witness achieving the lower-bound maximum can
// itself never satisfy that strict inequality, so every skip leaves an
// evaluated witness that realizes a higher arrival (and completion)
// than the skipped pin could — processCell's first-pin-wins argmax, its
// quiescent max and the predecessor choice are all preserved
// bit-exactly.
func (e *Engine) t0Gate(mode Mode, cell *netlist.Cell, dOut int, cands []t0Cand, w *tally) {
	t0 := e.t0
	outRank := e.netRank[cell.Out]
	arrTop := [2]float64{math.Inf(-1), math.Inf(-1)}
	compTop := [2]float64{math.Inf(-1), math.Inf(-1)}
	arrIdx, compIdx := -1, -1
	for i := range cands {
		c := &cands[i]
		if c.exact {
			r := &c.res
			c.b = arcBounds{delayLo: r.Delay, delayHi: r.Delay, compLo: r.Completion, compHi: r.Completion}
		} else {
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
		}
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
		if c.exact {
			w.tier0Exact++
			continue
		}
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
	// The slot's bracket stays: the next pass reuses it at a bit-equal
	// slew.
	slot.req, slot.res, slot.valid, slot.probed = req, res, true, false
	return res, nil
}

// t0Probe answers one candidate arc from the cache as it stood when the
// run began, taking evalArc's steps with the probe in place of the
// evaluator: the best-case request, the exact coupling classification,
// then the final request. A t_bcs or memo slot serves it only if a
// probe filled the slot, so a run that begins on an empty cache is
// never answered. ok reports an exact answer; the classification is
// tallied only then (the exact path counts its own), while a best-case
// hit stays in its t_bcs slot for the exact path to reuse.
func (e *Engine) t0Probe(mode Mode, st []netState, quietPrev [][2]float64,
	cell *netlist.Cell, pin, dOut int, inArr, inSlew float64, w *tally) (delaycalc.Result, bool) {

	out := cell.Out
	inf := &e.info[out-1]
	pi := e.opts.PiModel
	if (mode != OneStep && mode != Iterative) || inf.sumCc == 0 {
		grounded, cc := modeLoad(mode, inf)
		return e.t0ProbeFinal(cell, pin, dOut, e.arcRequest(cell, pin, dOut, inSlew, grounded, cc, pi), w)
	}
	slot := &e.bcs[e.arcSlot(out, pin, dOut)]
	reused := slot.valid && slot.probed && slot.inSlew == inSlew
	if !reused {
		res, ok := e.t0Cached(e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0, pi), w)
		if !ok {
			return res, false
		}
		*slot = bcsEntry{inSlew: inSlew, res: res, valid: true, probed: true}
	}
	tBCS := inArr + slot.res.TimeToRestart
	c, _ := e.classify(st, quietPrev, out, dOut, tBCS, tBCS, nil)
	e.noteInterval(out, pin, dOut, tBCS, tBCS)
	res, ok := slot.res, true
	if c.cc > 0 {
		res, ok = e.t0ProbeFinal(cell, pin, dOut, e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+(inf.sumCc-c.cc), c.cc, pi), w)
	}
	if !ok {
		return res, false
	}
	if reused {
		w.tbcsHits++
	}
	if c.cc == 0 {
		w.zeroSkips++
	}
	w.couplingActive += c.nActive
	w.couplingGrounded += c.nGrounded
	return res, true
}

// t0ProbeFinal answers a final arc request from the memo slot when a
// probe filled it with the same request, else from the cache.
func (e *Engine) t0ProbeFinal(cell *netlist.Cell, pin, dOut int, req delaycalc.Request, w *tally) (delaycalc.Result, bool) {
	slot := &e.t0.memo[e.arcSlot(cell.Out, pin, dOut)]
	if slot.valid && slot.probed && slot.req == req {
		w.tier0Hits++
		return slot.res, true
	}
	res, ok := e.t0Cached(req, w)
	if ok {
		slot.req, slot.res, slot.valid, slot.probed = req, res, true, true
	}
	return res, ok
}

// t0Cached looks req up at the run's horizon, tallying a hit as the
// calculator counts it: one request served from the cache.
func (e *Engine) t0Cached(req delaycalc.Request, w *tally) (delaycalc.Result, bool) {
	res, ok := e.t0.probe.Cached(req, e.t0.horizon)
	if ok {
		w.calc.Requests++
		w.calc.CacheHits++
	}
	return res, ok
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
	e.work.tier0Hits, e.work.tier0Fallbacks, e.work.tier0FlipGuards, e.work.tier0Exact = 0, 0, 0, 0
	e.t0 = nil
	e.tier0Rerun = true
	e.m.tier0Reruns.Inc()
	return true
}
