package spice

import (
	"fmt"
	"math"

	"xtalksta/internal/device"
	"xtalksta/internal/solver"
	"xtalksta/internal/waveform"
)

// Integrator selects the companion model used for capacitors.
type Integrator int

const (
	// BackwardEuler is robust and L-stable; it is the default and the
	// method used for the per-arc STA stage simulations, where the
	// coupling model injects instantaneous state jumps.
	BackwardEuler Integrator = iota
	// Trapezoidal is second-order accurate; used by the golden path
	// simulations.
	Trapezoidal
)

// String names the integrator.
func (i Integrator) String() string {
	if i == Trapezoidal {
		return "trapezoidal"
	}
	return "backward-euler"
}

// Event is a threshold-crossing trigger on a node. When the node value
// crosses Threshold in direction Dir during a step, Action is invoked
// once with the crossing time and a state handle that can override node
// voltages — this is how the paper's instantaneous coupling drop is
// applied to the victim.
type Event struct {
	Node      NodeID
	Threshold float64
	Dir       waveform.Direction
	// Action may call State.SetV to apply instantaneous jumps. It runs
	// at most once.
	Action func(t float64, s *State)

	fired bool
	// localized marks that the adaptive kernel already rejected one
	// oversized step to land on this event's interpolated crossing time
	// (one-shot, so an interpolation undershoot cannot loop forever).
	localized bool
}

// State is the live solver state handed to event actions.
type State struct {
	tr *tranRun
}

// V returns the present voltage of a node.
func (s *State) V(n NodeID) float64 { return s.tr.nodeV(n, s.tr.tNow) }

// SetV overrides the voltage of a free node instantaneously. Capacitor
// charge history is re-based on the overridden state, matching the
// capacitive-divider semantics of the coupling model. Driven nodes and
// ground are unaffected.
func (s *State) SetV(n NodeID, v float64) {
	idx := s.tr.unkIdx[n]
	if idx < 0 {
		return
	}
	s.tr.x[idx] = v
	s.tr.rebased = true
}

// TranOptions configures a transient run.
type TranOptions struct {
	TStop  float64 // end time (required, > 0)
	DT     float64 // base timestep (required, > 0)
	Method Integrator
	// InitialV seeds node voltages before the DC operating point solve
	// (and entirely defines the initial state when SkipDC is set).
	// Entries for driven nodes are ignored.
	InitialV map[NodeID]float64
	// SkipDC starts the transient directly from InitialV without an
	// operating-point solve.
	SkipDC bool
	// Probes limits which nodes are recorded; nil records every node.
	Probes []NodeID
	// Events are threshold-crossing triggers (see Event).
	Events []*Event
	// Gmin is the minimum conductance from every free node to ground
	// (default 1e-12 S) that keeps matrices non-singular when nodes
	// float through capacitors only.
	Gmin float64
	// MaxNewtonIter bounds the per-step Newton iterations (default 60).
	MaxNewtonIter int
	// ForceDense disables the banded solver selection (ablation).
	ForceDense bool

	// The remaining fields configure the adaptive kernel behind
	// StartTransient; the fixed-grid Transient ignores them.

	// LTETol is the local-truncation-error tolerance in volts per step.
	// Required (> 0) by StartTransient: the step controller keeps the
	// linear-predictor error estimate near LTETol, shrinking steps
	// through transitions and growing them exponentially in flat tails.
	LTETol float64
	// SettleV lists nodes with their expected final voltages. When
	// SettleTol > 0 and every listed node has stayed within SettleTol of
	// its target for two consecutive accepted steps (after MinSettleTime,
	// with every event fired), integration stops early.
	SettleV   map[NodeID]float64
	SettleTol float64
	// MinSettleTime blocks the early-stop latch before this time.
	MinSettleTime float64
}

// Result holds the recorded traces of a transient run.
type Result struct {
	Time []float64
	// traces points at the live per-probe sample buffers, so the
	// recording loop appends through the pointer without a map write
	// per sample.
	traces map[NodeID]*[]float64
	ckt    *Circuit
	// Banded reports whether the banded solver was used.
	Banded bool
	// NewtonIterations is the total Newton iteration count over the DC
	// operating point and every accepted or retried timestep.
	NewtonIterations int
	// NewtonRetries counts timesteps that failed to converge and were
	// retried with a halved step.
	NewtonRetries int
	// Steps counts accepted timesteps; Rejections counts steps redone
	// because the truncation-error estimate exceeded tolerance (adaptive
	// kernel only — the fixed grid accepts every converged step).
	Steps      int
	Rejections int
	// EarlyStop reports that the adaptive kernel's settle detector ended
	// integration before the requested stop time.
	EarlyStop bool
}

// Trace returns the recorded trace for a node, or an error when the
// node was not probed.
func (r *Result) Trace(n NodeID) (*Trace, error) {
	v, ok := r.traces[n]
	if !ok {
		return nil, fmt.Errorf("spice: node %s was not probed", r.ckt.NodeName(n))
	}
	return &Trace{T: r.Time, V: *v}, nil
}

// tranRun is the per-run solver state.
type tranRun struct {
	ckt  *Circuit
	opts TranOptions

	unkIdx  []int // per node: unknown index, or -1 (ground / driven)
	nFree   int
	nBranch int

	// drivenSrc flattens ckt.driven into a per-node slice (nil = free
	// node) so the Eval/nodeV hot paths never touch the map. drivenNow
	// caches each driven node's source voltage at drivenT: Newton calls
	// Eval several times per step with tNow fixed, and rails are
	// referenced once per transistor terminal, so the memo collapses
	// many interface calls (and PWL searches) into one per timepoint.
	drivenSrc []Source
	drivenIDs []NodeID
	drivenNow []float64
	drivenT   float64
	drivenOK  bool

	// Compiled stamps: per-device voltage references and matrix columns
	// resolved once per run, so the Eval loop is pure array arithmetic
	// (no per-terminal closure calls or ground/driven branches beyond a
	// sign test). A reference >= 0 indexes the unknown vector; < 0 is
	// ^NodeID into drivenNow/drivenPrev (ground is ^0, and index 0 of
	// those tables is always zero).
	resS []resStamp
	capS []capStamp
	mosS []mosStamp

	// Per-step capacitor companion model. geq and hist depend only on
	// (xPrev, tPrev, h, capIPrev, effMethod) — all fixed for the whole
	// Newton solve of a step attempt — so they are computed once per
	// (tNow, h, method) key instead of once per iteration. drivenPrev
	// memoizes source voltages at tPrev the same way drivenNow does at
	// tNow.
	capGeq, capHist []float64
	capT, capH      float64
	capM            Integrator
	capOK           bool
	drivenPrev      []float64
	prevT           float64
	prevOK          bool

	x        []float64 // free node voltages then branch currents
	xPrev    []float64
	capIPrev []float64 // per-capacitor current at previous step (trapezoidal)
	rebased  bool      // set when an event overrode state mid-run

	tNow, tPrev, h float64
	dcMode         bool
	// effMethod is the integrator for the current step; the first
	// transient step always uses Backward Euler to initialize the
	// trapezoidal history from a consistent state.
	effMethod Integrator
}

// nodeV returns the voltage of any node at time t under the current
// state vector.
func (tr *tranRun) nodeV(n NodeID, t float64) float64 {
	if n == Ground {
		return 0
	}
	if src := tr.drivenSrc[n]; src != nil {
		return src.V(t)
	}
	return tr.x[tr.unkIdx[n]]
}

func (tr *tranRun) prevNodeV(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	if src := tr.drivenSrc[n]; src != nil {
		return src.V(tr.tPrev)
	}
	return tr.xPrev[tr.unkIdx[n]]
}

// resStamp/capStamp/mosStamp are the compiled MNA stamps: va/vb/... are
// voltage references (see tranRun), ca/cb/... the matrix columns (-1
// for ground/driven rows, which carry no unknown).
type resStamp struct {
	va, vb int32
	ca, cb int32
	g      float64
}

type capStamp struct {
	va, vb int32
	ca, cb int32
	c      float64
}

type mosStamp struct {
	vd, vg, vs int32
	cd, cg, cs int32
	model      *device.TableModel
}

// vAt decodes a voltage reference against the iterate x and the
// memoized driven-node voltages at tNow.
func (tr *tranRun) vAt(x []float64, r int32) float64 {
	if r >= 0 {
		return x[r]
	}
	return tr.drivenNow[^r]
}

// vPrevAt decodes a voltage reference against the previous-step state.
func (tr *tranRun) vPrevAt(r int32) float64 {
	if r >= 0 {
		return tr.xPrev[r]
	}
	return tr.drivenPrev[^r]
}

// compileStamps resolves every device terminal to its voltage
// reference and matrix column under the run's unknown numbering.
func (tr *tranRun) compileStamps() {
	c := tr.ckt
	ref := func(n NodeID) int32 {
		if n == Ground {
			return ^int32(0)
		}
		if tr.drivenSrc[n] != nil {
			return ^int32(n)
		}
		return int32(tr.unkIdx[n])
	}
	col := func(n NodeID) int32 {
		if n == Ground {
			return -1
		}
		return int32(tr.unkIdx[n]) // -1 when driven
	}
	for i, r := range c.resistors {
		tr.resS[i] = resStamp{ref(r.a), ref(r.b), col(r.a), col(r.b), r.g}
	}
	for i, cp := range c.capacitors {
		tr.capS[i] = capStamp{ref(cp.a), ref(cp.b), col(cp.a), col(cp.b), cp.c}
	}
	for i, m := range c.mosfets {
		tr.mosS[i] = mosStamp{ref(m.d), ref(m.g), ref(m.s), col(m.d), col(m.g), col(m.s), m.model}
	}
}

// Eval implements solver.System: KCL residual and Jacobian at point x.
func (tr *tranRun) Eval(x []float64, jac *solver.Matrix, res []float64) {
	ckt := tr.ckt
	if !tr.drivenOK || tr.drivenT != tr.tNow {
		for _, n := range tr.drivenIDs {
			tr.drivenNow[n] = tr.drivenSrc[n].V(tr.tNow)
		}
		tr.drivenT = tr.tNow
		tr.drivenOK = true
	}
	// Gmin from every free node to ground.
	gmin := tr.opts.Gmin
	for i := 0; i < tr.nFree; i++ {
		res[i] += gmin * x[i]
		jac.Add(i, i, gmin)
	}

	for i := range tr.resS {
		s := &tr.resS[i]
		cur := s.g * (tr.vAt(x, s.va) - tr.vAt(x, s.vb))
		if s.ca >= 0 {
			res[s.ca] += cur
			jac.Add(int(s.ca), int(s.ca), s.g)
			if s.cb >= 0 {
				jac.Add(int(s.ca), int(s.cb), -s.g)
			}
		}
		if s.cb >= 0 {
			res[s.cb] -= cur
			if s.ca >= 0 {
				jac.Add(int(s.cb), int(s.ca), -s.g)
			}
			jac.Add(int(s.cb), int(s.cb), s.g)
		}
	}

	if !tr.dcMode {
		if !tr.capOK || tr.capT != tr.tNow || tr.capH != tr.h || tr.capM != tr.effMethod {
			// xPrev and capIPrev only change when a step is accepted,
			// which always advances tNow, so (tNow, h, method) uniquely
			// keys the companion history of this step attempt.
			if !tr.prevOK || tr.prevT != tr.tPrev {
				for _, n := range tr.drivenIDs {
					tr.drivenPrev[n] = tr.drivenSrc[n].V(tr.tPrev)
				}
				tr.prevT = tr.tPrev
				tr.prevOK = true
			}
			for i := range tr.capS {
				s := &tr.capS[i]
				dvPrev := tr.vPrevAt(s.va) - tr.vPrevAt(s.vb)
				var geq, hist float64
				switch tr.effMethod {
				case Trapezoidal:
					geq = 2 * s.c / tr.h
					hist = geq*dvPrev + tr.capIPrev[i]
				default: // Backward Euler
					geq = s.c / tr.h
					hist = geq * dvPrev
				}
				tr.capGeq[i] = geq
				tr.capHist[i] = hist
			}
			tr.capT, tr.capH, tr.capM, tr.capOK = tr.tNow, tr.h, tr.effMethod, true
		}
		for i := range tr.capS {
			s := &tr.capS[i]
			geq := tr.capGeq[i]
			cur := geq*(tr.vAt(x, s.va)-tr.vAt(x, s.vb)) - tr.capHist[i]
			if s.ca >= 0 {
				res[s.ca] += cur
				jac.Add(int(s.ca), int(s.ca), geq)
				if s.cb >= 0 {
					jac.Add(int(s.ca), int(s.cb), -geq)
				}
			}
			if s.cb >= 0 {
				res[s.cb] -= cur
				if s.ca >= 0 {
					jac.Add(int(s.cb), int(s.ca), -geq)
				}
				jac.Add(int(s.cb), int(s.cb), geq)
			}
		}
	}

	for i := range tr.mosS {
		s := &tr.mosS[i]
		vgs := tr.vAt(x, s.vg) - tr.vAt(x, s.vs)
		vds := tr.vAt(x, s.vd) - tr.vAt(x, s.vs)
		ids, gm, gds := s.model.Eval(vgs, vds)
		// Current flows d→s (leaves node d, enters node s).
		if s.cd >= 0 {
			res[s.cd] += ids
			if s.cg >= 0 {
				jac.Add(int(s.cd), int(s.cg), gm)
			}
			jac.Add(int(s.cd), int(s.cd), gds)
			if s.cs >= 0 {
				jac.Add(int(s.cd), int(s.cs), -(gm + gds))
			}
		}
		if s.cs >= 0 {
			res[s.cs] -= ids
			if s.cg >= 0 {
				jac.Add(int(s.cs), int(s.cg), -gm)
			}
			if s.cd >= 0 {
				jac.Add(int(s.cs), int(s.cd), -gds)
			}
			jac.Add(int(s.cs), int(s.cs), gm+gds)
		}
	}

	nv := func(n NodeID) float64 {
		if n == Ground {
			return 0
		}
		if tr.drivenSrc[n] != nil {
			return tr.drivenNow[n]
		}
		return x[tr.unkIdx[n]]
	}
	col := func(n NodeID) int {
		if n == Ground {
			return -1
		}
		return tr.unkIdx[n]
	}
	addJ := func(r NodeID, c int, v float64) {
		ri := col(r)
		if ri < 0 || c < 0 {
			return
		}
		jac.Add(ri, c, v)
	}
	addRes := func(r NodeID, v float64) {
		if ri := col(r); ri >= 0 {
			res[ri] += v
		}
	}
	for bi, v := range ckt.vsources {
		bcol := tr.nFree + bi
		ib := x[bcol]
		addRes(v.pos, ib)
		addRes(v.neg, -ib)
		addJ(v.pos, bcol, 1)
		addJ(v.neg, bcol, -1)
		// Constraint row.
		res[bcol] = nv(v.pos) - nv(v.neg) - v.src.V(tr.tNow)
		if c := col(v.pos); c >= 0 {
			jac.Add(bcol, c, 1)
		}
		if c := col(v.neg); c >= 0 {
			jac.Add(bcol, c, -1)
		}
	}
}

// bandwidth returns the half bandwidth of the system under the current
// unknown numbering.
func (tr *tranRun) bandwidth() int {
	bw := 0
	upd := func(a, b NodeID) {
		ia, ib := -1, -1
		if a != Ground {
			ia = tr.unkIdx[a]
		}
		if b != Ground {
			ib = tr.unkIdx[b]
		}
		if ia < 0 || ib < 0 {
			return
		}
		d := ia - ib
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	for _, r := range tr.ckt.resistors {
		upd(r.a, r.b)
	}
	for _, c := range tr.ckt.capacitors {
		upd(c.a, c.b)
	}
	for _, m := range tr.ckt.mosfets {
		upd(m.d, m.g)
		upd(m.d, m.s)
		upd(m.g, m.s)
	}
	for bi, v := range tr.ckt.vsources {
		bcol := tr.nFree + bi
		for _, n := range []NodeID{v.pos, v.neg} {
			if n == Ground {
				continue
			}
			if i := tr.unkIdx[n]; i >= 0 {
				d := bcol - i
				if d < 0 {
					d = -d
				}
				if d > bw {
					bw = d
				}
			}
		}
	}
	return bw
}

// Transient runs a transient analysis and returns the recorded traces.
// Solver scratch (unknown numbering, stamp tables, Newton driver, LU
// workspace) comes from the shared workspace pool and is returned when
// the run finishes; only the Result and its traces are allocated per
// call.
func (c *Circuit) Transient(opts TranOptions) (*Result, error) {
	if opts.TStop <= 0 {
		return nil, fmt.Errorf("spice: TStop must be positive, got %g", opts.TStop)
	}
	if opts.DT <= 0 {
		return nil, fmt.Errorf("spice: DT must be positive, got %g", opts.DT)
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
	defer tranPool.Put(ws)
	tr, err := c.newRunWS(opts, ws)
	if err != nil {
		return nil, err
	}
	nUnk := tr.nFree + tr.nBranch

	// Pick the linear solver: banded for large chain-structured
	// systems, dense otherwise.
	nwOpts := solver.NewtonOptions{
		MaxIter: opts.MaxNewtonIter,
		TolX:    1e-7,
		// 50 nA of KCL residual on a ~100 fF node over a ~ps step is a
		// sub-µV error — far below TolX — but loose enough that table-
		// boundary chatter in large circuits cannot stall the run.
		TolF:    5e-8,
		MaxStep: 0.4,
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
	nw := ws.nw

	totalIters, retries := 0, 0

	// DC operating point: capacitors open, sources at t=0.
	if !opts.SkipDC {
		tr.dcMode = true
		tr.tNow, tr.tPrev = 0, 0
		iters, err := nw.Solve(tr, tr.x)
		totalIters += iters
		if err != nil {
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
	res := &Result{
		traces: make(map[NodeID]*[]float64, len(probes)),
		ckt:    c,
		Banded: banded,
	}
	bufs := make([][]float64, len(probes))
	for i, p := range probes {
		res.traces[p] = &bufs[i]
	}
	record := func(t float64) {
		res.Time = append(res.Time, t)
		for i := range probes {
			bufs[i] = append(bufs[i], tr.nodeV(probes[i], t))
		}
	}
	tr.tNow = 0
	record(0)

	state := &State{tr: tr}
	t := 0.0
	firstStep := true
	for t < opts.TStop {
		tr.effMethod = opts.Method
		if firstStep {
			tr.effMethod = BackwardEuler
		}
		h := opts.DT
		if t+h > opts.TStop {
			h = opts.TStop - t
		}
		copy(tr.xPrev, tr.x)
		tr.tPrev = t
		// Retry with halved steps on Newton failure.
		var solved bool
		for attempt := 0; attempt < 5; attempt++ {
			tr.h = h
			tr.tNow = t + h
			copy(tr.x, tr.xPrev)
			iters, err := nw.Solve(tr, tr.x)
			totalIters += iters
			if err == nil {
				solved = true
				break
			}
			retries++
			h /= 2
		}
		if !solved {
			return nil, fmt.Errorf("spice: transient failed to converge at t=%g (%s)", t, tr.worstResidualInfo())
		}
		// Update the capacitor-current history used by trapezoidal
		// integration (also after the BE startup step).
		if opts.Method == Trapezoidal {
			for ci, cp := range c.capacitors {
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
		firstStep = false
		tNew := t + h
		// Event detection on the accepted step.
		for _, ev := range opts.Events {
			if ev.fired {
				continue
			}
			vPrev := tr.prevNodeV(ev.Node)
			vNow := tr.nodeV(ev.Node, tNew)
			crossed := false
			if ev.Dir == waveform.Rising {
				crossed = vPrev < ev.Threshold && vNow >= ev.Threshold
			} else {
				crossed = vPrev > ev.Threshold && vNow <= ev.Threshold
			}
			if crossed {
				ev.fired = true
				if ev.Action != nil {
					ev.Action(tNew, state)
				}
			}
		}
		if tr.rebased {
			// An event overrode node voltages: restart the capacitor
			// history from the overridden state (instantaneous charge
			// redistribution, per the coupling model).
			for ci := range tr.capIPrev {
				tr.capIPrev[ci] = 0
			}
			tr.rebased = false
		}
		record(tNew)
		res.Steps++
		t = tNew
	}
	res.NewtonIterations = totalIters
	res.NewtonRetries = retries
	return res, nil
}

// OperatingPoint solves the DC state of the circuit (capacitors open,
// sources at t = 0) and returns the node voltages by NodeID (including
// driven nodes at their t=0 values).
func (c *Circuit) OperatingPoint(initial map[NodeID]float64) (map[NodeID]float64, error) {
	ws := tranPool.Get().(*tranWorkspace)
	defer tranPool.Put(ws)
	tr, err := c.newRunWS(TranOptions{Gmin: 1e-12, InitialV: initial}, ws)
	if err != nil {
		return nil, err
	}
	tr.dcMode = true
	nUnk := tr.nFree + tr.nBranch
	nwOpts := solver.NewtonOptions{MaxIter: 200, TolX: 1e-9, TolF: 5e-8, MaxStep: 0.4}
	if ws.nw == nil {
		ws.nw = solver.NewNewton(nUnk, nwOpts)
	} else {
		ws.nw.Reconfigure(nUnk, nwOpts)
	}
	if _, err := ws.nw.Solve(tr, tr.x); err != nil {
		return nil, fmt.Errorf("spice: operating point: %w", err)
	}
	out := make(map[NodeID]float64, len(c.nodeNames)-1)
	for id := 1; id < len(c.nodeNames); id++ {
		out[NodeID(id)] = tr.nodeV(NodeID(id), 0)
	}
	return out, nil
}

// worstResidualInfo evaluates the residual at the current state and
// names the node with the largest KCL violation — the diagnostic shown
// on non-convergence.
func (tr *tranRun) worstResidualInfo() string {
	nUnk := tr.nFree + tr.nBranch
	jac := solver.NewMatrix(nUnk)
	res := make([]float64, nUnk)
	tr.Eval(tr.x, jac, res)
	worstIdx, worstVal := -1, 0.0
	for i, r := range res {
		if a := math.Abs(r); a > worstVal {
			worstVal = a
			worstIdx = i
		}
	}
	if worstIdx < 0 {
		return "no residual"
	}
	name := fmt.Sprintf("branch %d", worstIdx-tr.nFree)
	volt := math.NaN()
	for id := 1; id < len(tr.ckt.nodeNames); id++ {
		if tr.unkIdx[id] == worstIdx {
			name = tr.ckt.NodeName(NodeID(id))
			volt = tr.x[worstIdx]
			break
		}
	}
	return fmt.Sprintf("worst residual %.3g A at %s (%.3g V)", worstVal, name, volt)
}

// guard against accidental NaN propagation in tests.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
