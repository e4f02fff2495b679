package core

import (
	"strconv"
	"time"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/obs"
)

// PassStat is the per-pass breakdown of one analysis: how much work a
// BFS sweep did and where the longest-path bound stood afterwards.
type PassStat struct {
	// Pass is 1-based. For Iterative, pass 1 is the one-step seed pass
	// and later passes are refinements.
	Pass int
	// Mode is the sweep rule the pass executed (OneStep for the
	// iterative seed pass).
	Mode Mode
	// ArcEvaluations / Simulations / CacheHits / NewtonIterations are
	// the delay-calculator work deltas attributable to this pass.
	ArcEvaluations   int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	// Tier0Hits counts evaluator calls the tier-0 dispatcher avoided in
	// this pass (zero with Options.Tier0 off).
	Tier0Hits int64
	// RecalculatedWires counts nets whose arcs were actually
	// re-evaluated (Esperance skips excluded).
	RecalculatedWires int64
	// EsperanceSkips counts nets carried over from the previous pass.
	EsperanceSkips int64
	// ConvergedSkips counts lines the delta-convergent Iterative
	// refinement carried over because their inputs and neighbor
	// quiescent times were bit-identical to the previous pass. Zero for
	// pass 1, for full-recompute passes (including pass 2, which always
	// recomputes everything) and for Esperance runs.
	ConvergedSkips int64
	// LongestPath is the worst endpoint arrival after this pass.
	LongestPath float64
	// Wall is the pass's wall-clock time.
	Wall time.Duration
}

// engineMetrics holds the engine's resolved registry instruments. With
// a nil Options.Metrics the instruments are live but unregistered, so
// the hot path is identical either way. Every add is a shared atomic
// that the sweep workers contend on, so the hot path tallies its events
// in locals — coupling decisions per arc, tier-0 dispatch decisions per
// cell and direction — and publishes each total once; nothing adds per
// coupled neighbour or per candidate pin.
type engineMetrics struct {
	arcEvals, sims, newtonIters, newtonFails                *obs.Counter
	couplingActive, couplingGrounded, couplingWindowPruned  *obs.Counter
	ccZeroSkips, tbcsHits                                   *obs.Counter
	tier0Hits, tier0Fallbacks, tier0FlipGuards, tier0Reruns *obs.Counter
	passes, recalcWires, esperanceSkips                     *obs.Counter
	workerCells, seqCells                                   *obs.Counter
	ecoDirty, ecoReused, ecoExpansions, ecoFallbacks        *obs.Counter
	schedSteals, convergedSkips, statePoolReuses            *obs.Counter
	schedReadyDepth                                         *obs.Histogram
	workers                                                 *obs.Gauge

	// Live introspection plane: labeled latency families (resolved to
	// children per analysis — the label tuple is fixed per session) and
	// run accounting.
	analysisDur       *obs.HistogramVec
	passDur           *obs.HistogramVec
	phaseDur          *obs.HistogramVec
	queueWait         *obs.HistogramVec
	analyses          *obs.CounterVec
	attributionBuilds *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		arcEvals:             r.Counter(obs.MArcEvaluations),
		sims:                 r.Counter(obs.MSimulations),
		newtonIters:          r.Counter(obs.MNewtonIters),
		newtonFails:          r.Counter(obs.MNewtonFailures),
		couplingActive:       r.Counter(obs.MCouplingActive),
		couplingGrounded:     r.Counter(obs.MCouplingGrounded),
		couplingWindowPruned: r.Counter(obs.MCouplingWindowPruned),
		ccZeroSkips:          r.Counter(obs.MCouplingZeroSkips),
		tbcsHits:             r.Counter(obs.MTBCSReuseHits),
		tier0Hits:            r.Counter(obs.MTier0Hits),
		tier0Fallbacks:       r.Counter(obs.MTier0Fallbacks),
		tier0FlipGuards:      r.Counter(obs.MTier0FlipGuards),
		tier0Reruns:          r.Counter(obs.MTier0Reruns),
		passes:               r.Counter(obs.MPasses),
		recalcWires:          r.Counter(obs.MRecalcWires),
		esperanceSkips:       r.Counter(obs.MEsperanceSkips),
		workerCells:          r.Counter(obs.MWorkerCells),
		seqCells:             r.Counter(obs.MSequentialCells),
		ecoDirty:             r.Counter(obs.MEcoDirtyLines),
		ecoReused:            r.Counter(obs.MEcoReusedLines),
		ecoExpansions:        r.Counter(obs.MEcoConeExpansions),
		ecoFallbacks:         r.Counter(obs.MEcoFullFallbacks),
		schedSteals:          r.Counter(obs.MSchedSteals),
		convergedSkips:       r.Counter(obs.MPassConvergedSkips),
		statePoolReuses:      r.Counter(obs.MPassStateReuses),
		schedReadyDepth:      r.Histogram(obs.MSchedReadyDepth),
		workers:              r.Gauge(obs.MWorkers),
		analysisDur:          r.HistogramVec(obs.MAnalysisDuration, obs.DurationBounds, "mode", "corner", "revision"),
		passDur:              r.HistogramVec(obs.MPassDuration, obs.DurationBounds, "mode", "pass"),
		phaseDur:             r.HistogramVec(obs.MPhaseDuration, obs.DurationBounds, "mode", "phase"),
		queueWait:            r.HistogramVec(obs.MQueueWait, obs.DurationBounds, "mode"),
		analyses:             r.CounterVec(obs.MAnalyses, "mode", "corner"),
		attributionBuilds:    r.Counter(obs.MAttributionBuilds),
	}
}

// addCoupling publishes one arc's tallied coupling decisions, skipping
// the shared atomic adds a zero total does not need.
func (m *engineMetrics) addCoupling(active, grounded, pruned int) {
	if active > 0 {
		m.couplingActive.Add(int64(active))
	}
	if grounded > 0 {
		m.couplingGrounded.Add(int64(grounded))
	}
	if pruned > 0 {
		m.couplingWindowPruned.Add(int64(pruned))
	}
}

// modeLabel / sessionLabels render the session's bounded label tuple
// for the labeled latency families (see DESIGN.md §12).
func (e *Engine) modeLabel() string { return e.opts.Mode.String() }

func (e *Engine) sessionLabels() (mode, corner, revision string) {
	return e.modeLabel(), e.opts.Corner, strconv.FormatUint(e.rev, 10)
}

// calcCounters snapshots the evaluator's work counters, preferring the
// detailed CounterProvider view when the evaluator offers one.
func (e *Engine) calcCounters() delaycalc.Counters {
	if cp, ok := e.Calc.(delaycalc.CounterProvider); ok {
		return cp.Counters()
	}
	req, sims := e.Calc.Stats()
	return delaycalc.Counters{Requests: req, Simulations: sims}
}

// passHandle carries the start-of-pass snapshots between beginPass and
// endPass.
type passHandle struct {
	pass   int
	mode   Mode
	start  time.Time
	c0     delaycalc.Counters
	t0Hits int64
	span   *obs.Span
}

// beginPass opens the telemetry scope of one BFS sweep (driver
// goroutine only).
func (e *Engine) beginPass(pass int, mode Mode) *passHandle {
	e.passRecalc.Store(0)
	e.passSkips.Store(0)
	e.passConverged = 0
	ph := &passHandle{
		pass:  pass,
		mode:  mode,
		start: time.Now(),
		c0:    e.calcCounters(),
		span:  e.trace.Begin("pass", 0).Arg("pass", pass).Arg("mode", mode.String()),
	}
	if e.t0 != nil {
		ph.t0Hits = e.t0.hits.Load()
	}
	return ph
}

// endPass closes the scope, records the PassStat and returns the pass's
// longest-path bound.
func (e *Engine) endPass(ph *passHandle, st []netState) float64 {
	longest, _ := e.longest(st)
	d := e.calcCounters().Sub(ph.c0)
	stat := PassStat{
		Pass:              ph.pass,
		Mode:              ph.mode,
		ArcEvaluations:    d.Requests,
		Simulations:       d.Simulations,
		CacheHits:         d.CacheHits,
		NewtonIterations:  d.NewtonIterations,
		RecalculatedWires: e.passRecalc.Load(),
		EsperanceSkips:    e.passSkips.Load(),
		ConvergedSkips:    e.passConverged,
		LongestPath:       longest,
		Wall:              time.Since(ph.start),
	}
	if e.t0 != nil {
		stat.Tier0Hits = e.t0.hits.Load() - ph.t0Hits
	}
	e.passStats = append(e.passStats, stat)
	if !e.opts.DisableReplay {
		e.replayPasses = append(e.replayPasses, append([]netState(nil), st...))
	}
	e.m.passes.Inc()
	e.m.passDur.With(e.modeLabel(), strconv.Itoa(ph.pass)).Observe(stat.Wall.Seconds())
	ph.span.Arg("longest_ns", longest*1e9).
		Arg("arcs", d.Requests).
		Arg("recalc_wires", stat.RecalculatedWires).
		End()
	if e.opts.Events != nil {
		e.opts.Events.Emit("pass", map[string]any{
			"mode":            ph.mode.String(),
			"session_mode":    e.modeLabel(),
			"revision":        e.rev,
			"pass":            ph.pass,
			"longest_ns":      longest * 1e9,
			"arc_evaluations": d.Requests,
			"simulations":     d.Simulations,
			"recalc_wires":    stat.RecalculatedWires,
			"esperance_skips": stat.EsperanceSkips,
			"converged_skips": stat.ConvergedSkips,
			"wall_ms":         float64(stat.Wall) / 1e6,
		})
	}
	return longest
}
