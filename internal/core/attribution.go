package core

import (
	"math"
	"sort"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// Timing attribution: the per-arc breakdown of the top-K endpoint
// paths. Each arc of a reported path is re-evaluated through the
// session's calculator under the reported pass's exact classification
// context (the captured quiescent-time snapshot and pass mode), which the
// deterministic, cache-warm calculator answers bit-identically to the
// analysis proper. Re-accumulating launch → (…+wire)+gate → +endpoint
// then replays processCell's floating-point operation order, so the
// summed contributions reproduce the reported arrival Float64bits-
// exactly; every step and path carries an Exact flag verifying it.

// AttributionAggressor is one coupling neighbor that survived
// quiescent-time filtering on an arc (it coupled actively).
type AttributionAggressor struct {
	Net string
	// C is the coupling capacitance to the victim (farads).
	C float64
}

// AttributionStep is one hop of an attributed path. The first step of a
// path is the launch point (PI or flip-flop output): Wire, Gate and
// QuietGate are zero and Arrival is the launch time.
type AttributionStep struct {
	Net  string
	Dir  waveform.Direction
	Cell string // driving cell ("" for the launch point)
	// Wire is the Elmore wire delay consumed entering the driving
	// cell's input pin (zero under the π-model, where arrivals are
	// already at the receiving end).
	Wire float64
	// Gate is the arc delay through the driving cell under the
	// analysis's coupling treatment.
	Gate float64
	// QuietGate is the same arc with every coupling cap grounded at
	// face value (all neighbors quiet); CouplingSlowdown = Gate −
	// QuietGate is the delay attributable to active aggressors.
	QuietGate        float64
	CouplingSlowdown float64
	// Arrival is the stored 50% crossing time at the step's net.
	Arrival float64
	// Aggressors lists the neighbors that coupled actively on this arc.
	Aggressors []AttributionAggressor
	// Exact reports that re-evaluating the arc reproduced the stored
	// arrival bit-identically.
	Exact bool
}

// AttributedPath is one endpoint path, launch → capture.
type AttributedPath struct {
	Endpoint Endpoint
	Dir      waveform.Direction
	// Launch is the path's start time (Steps[0].Arrival).
	Launch float64
	// EndpointExtra is the wire delay from the last net to the endpoint
	// pin (the endpoint's SinkWireDelay or POWireDelay).
	EndpointExtra float64
	// Total is the endpoint arrival: re-accumulating Launch, then
	// (…+Wire)+Gate per step, then +EndpointExtra reproduces it
	// Float64bits-exactly when Exact.
	Total float64
	Exact bool
	Steps []AttributionStep
}

// Attribution is the per-arc breakdown of the top-K endpoint paths,
// worst-first. Paths[0] is the reported longest path.
type Attribution struct {
	Mode  Mode
	TopK  int
	Paths []AttributedPath
}

// buildAttribution ranks the endpoints of the reported pass state and
// attributes the top-K paths. Driver goroutine, after the analysis: the
// replays below hit the warm cache outside any pass, so they never
// count as analysis work.
func (e *Engine) buildAttribution(st []netState) (*Attribution, error) {
	e.m.attributionBuilds.Inc()
	type cand struct {
		arr float64
		ep  int
		dir int
	}
	var cands []cand
	for i, ep := range e.endpoints {
		s := &st[ep.net-1]
		if !s.calculated {
			continue
		}
		// Worse direction per endpoint, with finish()'s tie rule (rise
		// unless fall is strictly worse), so Paths[0] is Result.Path.
		d := dirRise
		if s.arrival[dirFall] > s.arrival[dirRise] {
			d = dirFall
		}
		if math.IsInf(s.arrival[d], -1) {
			continue
		}
		cands = append(cands, cand{arr: s.arrival[d] + ep.extra, ep: i, dir: d})
	}
	// Worst-first; ties resolve by endpoint order, matching longest().
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].arr > cands[b].arr })
	k := e.opts.AttributionTopK
	if k > len(cands) {
		k = len(cands)
	}
	attr := &Attribution{Mode: e.opts.Mode, TopK: e.opts.AttributionTopK}
	for _, c := range cands[:k] {
		p, err := e.attributePath(st, c.ep, c.dir)
		if err != nil {
			return nil, err
		}
		attr.Paths = append(attr.Paths, *p)
	}
	return attr, nil
}

// attributePath rebuilds one endpoint path with per-arc contributions.
func (e *Engine) attributePath(st []netState, epIdx, dir int) (*AttributedPath, error) {
	ep := e.endpoints[epIdx]
	p := &AttributedPath{
		Endpoint:      e.endpointName(ep),
		Dir:           dirOf(dir),
		EndpointExtra: ep.extra,
		Total:         st[ep.net-1].arrival[dir] + ep.extra,
	}
	chain := e.predWalk(st, ep.net, dir)

	// Launch step.
	launch := st[chain[0].net-1].arrival[chain[0].dir]
	p.Launch = launch
	p.Steps = append(p.Steps, AttributionStep{
		Net:     e.C.Net(chain[0].net).Name,
		Dir:     dirOf(chain[0].dir),
		Arrival: launch,
		Exact:   true,
	})

	// Arc steps, re-accumulating processCell's exact operation order:
	// acc_k = (acc_{k-1} + wire) + gate.
	acc := launch
	exact := true
	for i := 1; i < len(chain); i++ {
		h := chain[i]
		pr := st[h.net-1].pred[h.dir]
		step, err := e.attributeStep(st, pr, h.dir, st[h.net-1].arrival[h.dir])
		if err != nil {
			return nil, err
		}
		step.Net = e.C.Net(h.net).Name
		step.Dir = dirOf(h.dir)
		p.Steps = append(p.Steps, step)
		acc = (acc + step.Wire) + step.Gate
		exact = exact && step.Exact
	}
	total := acc + ep.extra
	p.Exact = exact && math.Float64bits(total) == math.Float64bits(p.Total)
	return p, nil
}

// attributeStep re-evaluates the arc behind one path hop: the cell in
// pr drove the hop's net, switching dOut, from pr.fromNet/fromDir. The
// stored output arrival outArr is the witness the replay must hit.
func (e *Engine) attributeStep(st []netState, pr arcPred, dOut int, outArr float64) (AttributionStep, error) {
	cell := e.C.Cell(pr.cell)
	from := pr.fromNet
	fromDir := pr.fromDir
	is := &st[from-1]
	inSlew := is.slew[fromDir]
	if inSlew <= 0 {
		inSlew = piSlew
	}

	// The same net may feed several pins of the cell; the predecessor
	// record does not store the pin. Try each candidate and keep the
	// one whose replay reproduces the stored arrival bitwise.
	var first *AttributionStep
	for pin, inNet := range cell.In {
		if inNet != from {
			continue
		}
		wire := 0.0
		if !e.opts.PiModel {
			wire = e.C.Net(from).Par.SinkWireDelay[netlist.PinRef{Cell: cell.ID, Pin: pin}]
		}
		inArr := is.arrival[fromDir]
		inArr += wire // processCell's op order: arrival, then += wire
		actual, quiet, aggs, err := e.attributeArc(e.finalPassMode, st, e.finalQuietPrev, cell, pin, dOut, inArr, inSlew)
		if err != nil {
			return AttributionStep{}, err
		}
		step := AttributionStep{
			Cell:             cell.Name,
			Wire:             wire,
			Gate:             actual.Delay,
			QuietGate:        quiet.Delay,
			CouplingSlowdown: actual.Delay - quiet.Delay,
			Arrival:          outArr,
			Aggressors:       aggs,
		}
		if math.Float64bits(inArr+actual.Delay) == math.Float64bits(outArr) {
			step.Exact = true
			return step, nil
		}
		if first == nil {
			s := step
			first = &s
		}
	}
	if first == nil {
		// Stale predecessor record (should not happen): synthesize a
		// residual-only step.
		first = &AttributionStep{Cell: cell.Name, Arrival: outArr}
	}
	// No replay reproduced the stored arrival (an ambiguous pin whose
	// sibling won the max): fall back to the residual so the
	// re-accumulation still tracks the stored value, and verify even
	// that bitwise.
	inArr := is.arrival[fromDir] + first.Wire
	first.Gate = outArr - inArr
	first.CouplingSlowdown = first.Gate - first.QuietGate
	first.Exact = math.Float64bits(inArr+first.Gate) == math.Float64bits(outArr)
	return *first, nil
}

// attributeArc re-evaluates one arc with evalArc's requests and coupling
// classification, returning the arc's actual result, its all-quiet
// reference and the actively coupling aggressors. It calls the
// calculator directly — no caches, memo or instrument traffic — so the
// deterministic calculator reproduces the analysis's results
// bit-identically from cache.
func (e *Engine) attributeArc(mode Mode, st []netState, quietPrev [][2]float64,
	cell *netlist.Cell, pin, dOut int, inArr, inSlew float64) (actual, quiet delaycalc.Result, aggs []AttributionAggressor, err error) {

	out := cell.Out
	inf := &e.info[out-1]
	pi := e.opts.PiModel
	// All-quiet reference: every coupling cap grounded at face value
	// (the best-case request; for OneStep/Iterative also the t_bcs
	// request, so it is already cached).
	bcs := e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0, pi)
	if mode == BestCase || ((mode == OneStep || mode == Iterative) && inf.sumCc == 0) {
		actual, err = e.Calc.Eval(bcs)
		return actual, actual, nil, err
	}
	if mode != OneStep && mode != Iterative {
		grounded, cc := modeLoad(mode, inf)
		if actual, err = e.Calc.Eval(e.arcRequest(cell, pin, dOut, inSlew, grounded, cc, pi)); err != nil {
			return
		}
		if quiet, err = e.Calc.Eval(bcs); err != nil {
			return
		}
		if mode == WorstCase {
			lo, hi := e.cc.Span(out)
			for k := lo; k < hi; k++ {
				aggs = append(aggs, AttributionAggressor{Net: e.C.Net(e.cc.Nbr[k]).Name, C: e.cc.C[k]})
			}
		}
		return
	}
	if quiet, err = e.Calc.Eval(bcs); err != nil {
		return
	}
	// Final-pass st is frozen, so the level rule reads the same
	// quiescent values the sweep saw (lower-rank neighbors were final
	// before this cell ran).
	tBCS := inArr + quiet.TimeToRestart
	c, _ := e.classify(st, quietPrev, out, dOut, tBCS, tBCS, func(k int32) {
		aggs = append(aggs, AttributionAggressor{Net: e.C.Net(e.cc.Nbr[k]).Name, C: e.cc.C[k]})
	})
	if c.cc == 0 {
		return quiet, quiet, aggs, nil
	}
	actual, err = e.Calc.Eval(e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+(inf.sumCc-c.cc), c.cc, pi))
	return actual, quiet, aggs, err
}
