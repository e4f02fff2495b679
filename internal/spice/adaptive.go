package spice

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"xtalksta/internal/solver"
	"xtalksta/internal/waveform"
)

// Breakpointer is implemented by sources whose waveform has slope
// discontinuities at known times (ramp corners, PWL points). The
// adaptive kernel never steps across a breakpoint: it lands on it
// exactly and restarts fine stepping there, so an exponentially grown
// settled-tail step cannot leap over an input ramp whose onset the
// truncation-error estimate has not seen yet.
type Breakpointer interface {
	Breakpoints() []float64
}

// tranWorkspace is the pooled per-simulation scratch: solution vectors,
// Newton driver (Jacobian + LU workspace), banded factorization and
// trace buffers. One stage simulation allocates nothing beyond the
// Result shell once the pool is warm.
type tranWorkspace struct {
	nw        *solver.Newton
	banded    *solver.BandedLU
	unkIdx    []int
	x         []float64
	xPrev     []float64
	xOld      []float64
	xPred     []float64
	capIPrev  []float64
	drivenSrc []Source
	drivenIDs []NodeID
	drivenNow []float64
	// Compiled-stamp and companion-model scratch (see tranRun).
	drivenPrev []float64
	resS       []resStamp
	capS       []capStamp
	mosS       []mosStamp
	capGeq     []float64
	capHist    []float64
	time       []float64
	traces     [][]float64
}

var tranPool = sync.Pool{New: func() any { return new(tranWorkspace) }}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// resizeSources clears on reuse: a stale non-nil entry would make a
// free node of the next circuit read as driven.
func resizeSources(s []Source, n int) []Source {
	if cap(s) < n {
		return make([]Source, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// resizeSlice reuses capacity without clearing — for scratch whose
// entries are fully rewritten before any read.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newRunWS builds the per-run state (unknown numbering and compiled
// stamps) backed by the pooled workspace's slices (grow-only reuse).
func (c *Circuit) newRunWS(opts TranOptions, ws *tranWorkspace) (*tranRun, error) {
	tr := &tranRun{
		ckt:     c,
		opts:    opts,
		nBranch: len(c.vsources),
	}
	ws.unkIdx = resizeInts(ws.unkIdx, len(c.nodeNames))
	ws.capIPrev = resizeFloats(ws.capIPrev, len(c.capacitors))
	ws.drivenSrc = resizeSources(ws.drivenSrc, len(c.nodeNames))
	ws.drivenNow = resizeFloats(ws.drivenNow, len(c.nodeNames))
	tr.unkIdx = ws.unkIdx
	tr.capIPrev = ws.capIPrev
	tr.drivenSrc = ws.drivenSrc
	tr.drivenNow = ws.drivenNow
	tr.drivenIDs = ws.drivenIDs[:0]
	idx := 0
	tr.unkIdx[Ground] = -1
	for id := 1; id < len(c.nodeNames); id++ {
		if src, ok := c.driven[NodeID(id)]; ok {
			tr.unkIdx[id] = -1
			tr.drivenSrc[id] = src
			tr.drivenIDs = append(tr.drivenIDs, NodeID(id))
			continue
		}
		tr.unkIdx[id] = idx
		idx++
	}
	tr.nFree = idx
	ws.drivenIDs = tr.drivenIDs
	nUnk := tr.nFree + tr.nBranch
	if nUnk == 0 {
		return nil, fmt.Errorf("spice: circuit has no unknowns (empty or fully driven)")
	}
	ws.x = resizeFloats(ws.x, nUnk)
	ws.xPrev = resizeFloats(ws.xPrev, nUnk)
	ws.xOld = resizeFloats(ws.xOld, nUnk)
	ws.xPred = resizeFloats(ws.xPred, nUnk)
	tr.x = ws.x
	tr.xPrev = ws.xPrev
	ws.drivenPrev = resizeFloats(ws.drivenPrev, len(c.nodeNames))
	ws.resS = resizeSlice(ws.resS, len(c.resistors))
	ws.capS = resizeSlice(ws.capS, len(c.capacitors))
	ws.mosS = resizeSlice(ws.mosS, len(c.mosfets))
	ws.capGeq = resizeSlice(ws.capGeq, len(c.capacitors))
	ws.capHist = resizeSlice(ws.capHist, len(c.capacitors))
	tr.drivenPrev = ws.drivenPrev
	tr.resS = ws.resS
	tr.capS = ws.capS
	tr.mosS = ws.mosS
	tr.capGeq = ws.capGeq
	tr.capHist = ws.capHist
	tr.compileStamps()
	for n, v := range opts.InitialV {
		if n != Ground {
			if i := tr.unkIdx[n]; i >= 0 {
				tr.x[i] = v
			}
		}
	}
	return tr, nil
}

// Tran is a resumable adaptive transient integration. Unlike Transient
// it does not run to a fixed stop time in one shot: Advance extends the
// existing trace to a new target, so a caller that discovers the output
// has not settled extends the window instead of resimulating from t=0.
//
// The timestep is controlled by the local truncation error of a linear
// predictor: small steps through the input ramp and the coupling event,
// exponentially growing steps in the settled tail, with an optional
// settle detector that terminates integration early.
//
// Close returns the scratch (solution vectors, LU workspace, trace
// buffers) to a pool; the Result and its traces are invalid after
// Close, so extract measurements first.
type Tran struct {
	opts   TranOptions
	tr     *tranRun
	nw     *solver.Newton
	ws     *tranWorkspace
	res    *Result
	state  *State
	probes []NodeID
	// bufs aliases ws.traces[:len(probes)]; record appends here and the
	// Result's trace map holds pointers into it, so the per-sample loop
	// does no map operations.
	bufs [][]float64
	// settleList is opts.SettleV flattened once at start so the
	// per-step settle check iterates a slice, not a map.
	settleList []settleTarget

	t    float64 // current integration time
	h0   float64 // baseline (fine) step: opts.DT
	hMin float64
	// hNext is the controller's proposal for the next step; hPrev the
	// last accepted step (predictor history spacing).
	hNext, hPrev float64
	xOld, xPred  []float64
	predValid    bool
	firstStep    bool
	prevH        float64
	prevIters    int

	bps   []float64
	bpIdx int

	// active marks the accuracy-critical phase (input ramp, output
	// transition, event recovery): while set, steps snap to the h0
	// reference grid so the waveform reproduces the fixed-grid result;
	// step growth is reserved for the quiet tail. actTol is the
	// per-step movement threshold separating the two regimes.
	active bool
	actTol float64

	settleRun int
	settled   bool
	closed    bool
	err       error
}

type settleTarget struct {
	n NodeID
	v float64
}

// StartTransient begins an adaptive transient run. No integration
// happens until Advance; the DC operating point (unless SkipDC) and the
// t=0 sample are computed here. opts.TStop is ignored — the Advance
// target drives integration. opts.DT is the baseline fine step (the
// initial step, and the step the kernel falls back to at source
// breakpoints and events); opts.LTETol must be positive.
func (c *Circuit) StartTransient(opts TranOptions) (*Tran, error) {
	if opts.DT <= 0 {
		return nil, fmt.Errorf("spice: DT must be positive, got %g", opts.DT)
	}
	if opts.LTETol <= 0 {
		return nil, fmt.Errorf("spice: StartTransient requires LTETol > 0, got %g", opts.LTETol)
	}
	if opts.Gmin == 0 {
		opts.Gmin = 1e-12
	}
	if opts.MaxNewtonIter == 0 {
		opts.MaxNewtonIter = 60
	}
	for _, ev := range opts.Events {
		if c.Driven(ev.Node) || ev.Node == Ground {
			return nil, fmt.Errorf("spice: event on driven/ground node %s", c.NodeName(ev.Node))
		}
	}

	ws := tranPool.Get().(*tranWorkspace)
	tr, err := c.newRunWS(opts, ws)
	if err != nil {
		tranPool.Put(ws)
		return nil, err
	}
	nUnk := tr.nFree + tr.nBranch

	nwOpts := solver.NewtonOptions{
		MaxIter: opts.MaxNewtonIter,
		TolX:    1e-7,
		TolF:    5e-8,
		MaxStep: 0.4,
		// Stationary accept: in the settled tail the state barely moves,
		// so the first-iteration residual is already below TolF and the
		// step costs one Eval with no factor or solve.
		AcceptFirst: true,
	}
	banded := false
	if !opts.ForceDense {
		if bw := tr.bandwidth(); nUnk >= 40 && bw <= 16 {
			if ws.banded == nil {
				ws.banded = solver.NewBandedLU(nUnk, bw)
			} else {
				ws.banded.Reset(nUnk, bw)
			}
			nwOpts.Linear = ws.banded
			banded = true
		}
	}
	if ws.nw == nil {
		ws.nw = solver.NewNewton(nUnk, nwOpts)
	} else {
		ws.nw.Reconfigure(nUnk, nwOpts)
	}

	tn := &Tran{
		opts:      opts,
		tr:        tr,
		nw:        ws.nw,
		ws:        ws,
		state:     &State{tr: tr},
		h0:        opts.DT,
		hMin:      opts.DT * 1e-3,
		hNext:     opts.DT,
		firstStep: true,
		actTol:    opts.LTETol,
		xOld:      ws.xOld,
		xPred:     ws.xPred,
	}
	tn.res = &Result{ckt: c, Banded: banded}

	if !opts.SkipDC {
		tr.dcMode = true
		tr.tNow, tr.tPrev = 0, 0
		iters, err := ws.nw.Solve(tr, tr.x)
		tn.res.NewtonIterations += iters
		if err != nil {
			tranPool.Put(ws)
			return nil, fmt.Errorf("spice: DC operating point: %w", err)
		}
		tr.dcMode = false
	}

	probes := opts.Probes
	if probes == nil {
		for id := 1; id < len(c.nodeNames); id++ {
			probes = append(probes, NodeID(id))
		}
	}
	tn.probes = probes
	for len(ws.traces) < len(probes) {
		ws.traces = append(ws.traces, nil)
	}
	tn.bufs = ws.traces[:len(probes)]
	tn.res.Time = ws.time[:0]
	tn.res.traces = make(map[NodeID]*[]float64, len(probes))
	for i := range probes {
		tn.bufs[i] = tn.bufs[i][:0]
		tn.res.traces[probes[i]] = &tn.bufs[i]
	}
	for n, v := range opts.SettleV {
		tn.settleList = append(tn.settleList, settleTarget{n, v})
	}
	tr.tNow = 0
	tn.record(0)

	// Collect source breakpoints (strictly positive, sorted, deduped).
	add := func(src Source) {
		if bp, ok := src.(Breakpointer); ok {
			for _, t := range bp.Breakpoints() {
				if t > 0 {
					tn.bps = append(tn.bps, t)
				}
			}
		}
	}
	for _, src := range c.driven {
		add(src)
	}
	for _, v := range c.vsources {
		add(v.src)
	}
	sort.Float64s(tn.bps)
	uniq := tn.bps[:0]
	for i, t := range tn.bps {
		if i == 0 || t > uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	tn.bps = uniq
	return tn, nil
}

// record appends the current state as a trace sample.
func (tn *Tran) record(t float64) {
	tn.res.Time = append(tn.res.Time, t)
	for i := range tn.probes {
		tn.bufs[i] = append(tn.bufs[i], tn.tr.nodeV(tn.probes[i], t))
	}
}

// Result returns the live result; its traces grow with every Advance
// and become invalid after Close.
func (tn *Tran) Result() *Result { return tn.res }

// Settled reports whether the settle detector latched (integration is
// finished regardless of further Advance calls).
func (tn *Tran) Settled() bool { return tn.settled }

// Now returns the current integration time.
func (tn *Tran) Now() float64 { return tn.t }

// Advance integrates up to tStop (or the settle latch). It may be
// called repeatedly with growing targets to extend the trace.
func (tn *Tran) Advance(tStop float64) error {
	if tn.err != nil {
		return tn.err
	}
	if tn.closed {
		return fmt.Errorf("spice: Advance after Close")
	}
	hMax := (tStop - tn.t) / 8
	if hMax < tn.h0 {
		hMax = tn.h0
	}
	for !tn.settled && tStop-tn.t > 1e-21 {
		if err := tn.step(tStop, hMax); err != nil {
			tn.err = err
			return err
		}
	}
	return nil
}

// Close releases the pooled workspace. The Result and its traces are
// invalid afterwards.
func (tn *Tran) Close() {
	if tn.closed {
		return
	}
	tn.closed = true
	ws := tn.ws
	ws.time = tn.res.Time[:0]
	for i := range tn.probes {
		ws.traces[i] = tn.bufs[i][:0]
	}
	tn.ws = nil
	tranPool.Put(ws)
}

// step advances one accepted timestep (possibly after internal
// rejections for truncation error, Newton failure or event
// localization).
func (tn *Tran) step(target, hMax float64) error {
	tr := tn.tr
	tr.effMethod = tn.opts.Method
	if tn.firstStep {
		// The first step always uses Backward Euler to initialize the
		// trapezoidal history from a consistent state.
		tr.effMethod = BackwardEuler
	}
	copy(tr.xPrev, tr.x)
	tr.tPrev = tn.t
	tol := tn.opts.LTETol

	h := tn.hNext
	snapped := tn.active
	if snapped {
		// Active phase: land on the next point of the h0 reference grid,
		// so the ramp, the output transition and any event recovery are
		// integrated on exactly the fixed-grid discretization and the
		// measured delays reproduce the reference. Step growth is
		// reserved for the quiet tail.
		next := (math.Floor(tn.t/tn.h0*(1+1e-12)) + 1) * tn.h0
		h = next - tn.t
		if h < tn.hMin {
			h += tn.h0
		}
	}
	if h > hMax {
		h = hMax
	}
	if h < tn.hMin {
		h = tn.hMin
	}
	rejections := 0
	for {
		// Clamp to the Advance target and the next source breakpoint so
		// steps land on them exactly.
		if h > target-tn.t {
			h = target - tn.t
		}
		if tn.bpIdx < len(tn.bps) {
			if bp := tn.bps[tn.bpIdx]; tn.t+h > bp {
				h = bp - tn.t
			}
		}
		tr.h = h
		tr.tNow = tn.t + h
		// Initial guess: the linear predictor when history is valid —
		// it both seeds Newton closer to the solution and is the state
		// against which the truncation error is estimated.
		usePred := tn.predValid && tn.hPrev > 0
		if usePred {
			r := h / tn.hPrev
			for i := range tn.xPred {
				tn.xPred[i] = tr.xPrev[i] + (tr.xPrev[i]-tn.xOld[i])*r
			}
			copy(tr.x, tn.xPred)
		} else {
			copy(tr.x, tr.xPrev)
		}
		if usePred && h == tn.prevH && tn.prevIters <= 2 {
			// Same step size and a near-stationary previous step: the
			// Jacobian is (near) unchanged, so the previous factorization
			// still preconditions this step.
			tn.nw.ReuseFactorization()
		}
		iters, err := tn.nw.Solve(tr, tr.x)
		tn.res.NewtonIterations += iters
		if err != nil {
			tn.res.NewtonRetries++
			rejections++
			if rejections > 40 || h <= tn.hMin*(1+1e-9) {
				return fmt.Errorf("spice: transient failed to converge at t=%g (%s)", tn.t, tr.worstResidualInfo())
			}
			h /= 2
			if h < tn.hMin {
				h = tn.hMin
			}
			continue
		}
		tn.prevIters = iters
		tn.prevH = h

		// Local truncation error against the predictor; the divided-
		// difference weight h/(h+hPrev) makes the estimate the standard
		// second-difference LTE proxy for a first-order method.
		if usePred && !snapped && h > tn.hMin {
			errMax := 0.0
			for i := 0; i < tr.nFree; i++ {
				if d := math.Abs(tr.x[i] - tn.xPred[i]); d > errMax {
					errMax = d
				}
			}
			lte := errMax * h / (h + tn.hPrev)
			fac := 2.0
			if lte > 0 {
				fac = 0.9 * math.Sqrt(tol/lte)
				if fac > 2.0 {
					fac = 2.0
				} else if fac < 0.2 {
					fac = 0.2
				}
			}
			if lte > 2*tol && rejections <= 40 {
				rejections++
				tn.res.Rejections++
				h *= fac
				if h < tn.hMin {
					h = tn.hMin
				}
				continue
			}
			tn.hNext = h * fac
		} else {
			tn.hNext = h
		}

		// Event detection, with crossing localization: an oversized step
		// that skates past a threshold is redone to land on the
		// interpolated crossing time, so the event fires with fixed-grid
		// (or better) timing accuracy.
		relocate := false
		for _, ev := range tn.opts.Events {
			if ev.fired {
				continue
			}
			vPrev := tr.prevNodeV(ev.Node)
			vNow := tr.nodeV(ev.Node, tr.tNow)
			var crossed bool
			if ev.Dir == waveform.Rising {
				crossed = vPrev < ev.Threshold && vNow >= ev.Threshold
			} else {
				crossed = vPrev > ev.Threshold && vNow <= ev.Threshold
			}
			if !crossed {
				continue
			}
			frac := (ev.Threshold - vPrev) / (vNow - vPrev)
			tCross := tn.t + h*frac
			if !ev.localized && tr.tNow-tCross > tn.h0 && tCross-tn.t > tn.hMin {
				ev.localized = true
				rejections++
				h = tCross - tn.t
				tn.hNext = tn.h0
				relocate = true
				break
			}
			ev.fired = true
			if ev.Action != nil {
				ev.Action(tr.tNow, tn.state)
			}
		}
		if relocate {
			continue
		}

		// Accepted: update the trapezoidal capacitor-current history
		// (also after the BE startup step), then handle event rebasing.
		if tn.opts.Method == Trapezoidal {
			for ci, cp := range tr.ckt.capacitors {
				dv := tr.nodeV(cp.a, tr.tNow) - tr.nodeV(cp.b, tr.tNow)
				dvPrev := tr.prevNodeV(cp.a) - tr.prevNodeV(cp.b)
				if tr.effMethod == BackwardEuler {
					tr.capIPrev[ci] = cp.c / tr.h * (dv - dvPrev)
				} else {
					geq := 2 * cp.c / tr.h
					tr.capIPrev[ci] = geq*(dv-dvPrev) - tr.capIPrev[ci]
				}
			}
		}
		rebased := tr.rebased
		if rebased {
			// An event overrode node voltages: restart the capacitor
			// history from the overridden state (instantaneous charge
			// redistribution, per the coupling model).
			for ci := range tr.capIPrev {
				tr.capIPrev[ci] = 0
			}
			tr.rebased = false
		}

		// Activity gate for the next step: stay on the reference grid
		// while any free node's slope (movement normalized to an h0
		// step) exceeds actTol or an event just rebased the state;
		// otherwise hand control to the growth controller. Normalizing
		// by h/h0 keeps the gate a slope test, so long quiet steps do
		// not flip it back on.
		moved := 0.0
		for i := 0; i < tr.nFree; i++ {
			if d := math.Abs(tr.x[i] - tr.xPrev[i]); d > moved {
				moved = d
			}
		}
		tn.active = rebased || moved > tn.actTol*(h/tn.h0)

		copy(tn.xOld, tr.xPrev)
		tn.hPrev = h
		tn.t = tr.tNow
		tn.firstStep = false
		tn.res.Steps++
		tn.record(tn.t)
		switch {
		case rebased:
			// The instantaneous jump invalidates the predictor history
			// and demands fine stepping through the recovery.
			tn.predValid = false
			tn.hNext = tn.h0
		case h < tn.hMin*0.1:
			// A sliver step (clamped to a target) carries too little
			// history for a trustworthy slope estimate.
			tn.predValid = false
		default:
			tn.predValid = true
		}
		// Consume breakpoints we just landed on: the source slope is
		// discontinuous there, so restart fine stepping and drop the
		// (now wrong) predictor history.
		for tn.bpIdx < len(tn.bps) && tn.bps[tn.bpIdx] <= tn.t+1e-21 {
			tn.bpIdx++
			tn.predValid = false
			if tn.hNext > tn.h0 {
				tn.hNext = tn.h0
			}
		}

		// Settle early-stop latch: two consecutive accepted steps with
		// every watched node at its final value, all events fired.
		if tn.opts.SettleTol > 0 && tn.t >= tn.opts.MinSettleTime {
			within := true
			for _, ev := range tn.opts.Events {
				if !ev.fired {
					within = false
					break
				}
			}
			if within {
				for _, st := range tn.settleList {
					if math.Abs(tr.nodeV(st.n, tn.t)-st.v) > tn.opts.SettleTol {
						within = false
						break
					}
				}
			}
			if within {
				tn.settleRun++
				if tn.settleRun >= 2 {
					tn.settled = true
					tn.res.EarlyStop = true
				}
			} else {
				tn.settleRun = 0
			}
		}
		return nil
	}
}
