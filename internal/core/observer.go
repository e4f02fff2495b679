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
	// the delay-calculator work of this pass's own evaluator calls.
	ArcEvaluations   int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	// Tier0Hits counts evaluator calls the tier-0 dispatcher avoided in
	// this pass (zero with Options.Tier0 off).
	Tier0Hits int64
	// RecalculatedWires counts nets whose arcs were actually
	// re-evaluated.
	RecalculatedWires int64
	// ConvergedSkips counts lines the delta-convergent Iterative
	// refinement carried over because their inputs and neighbor
	// quiescent times were bit-identical to the previous pass. Zero for
	// pass 1 and for full-recompute passes (including pass 2, which
	// always recomputes everything).
	ConvergedSkips int64
	// LongestPath is the worst endpoint arrival after this pass.
	LongestPath float64
	// Wall is the pass's wall-clock time.
	Wall time.Duration
}

// engineMetrics holds the engine's resolved registry instruments. With
// a nil Options.Metrics the instruments are live but unregistered, so
// the hot path is identical either way. Every add is a shared atomic
// that the sweep workers would contend on, so the sweep adds none: its
// work is tallied per worker (tally) and published once per pass.
type engineMetrics struct {
	arcEvals, sims, newtonIters, newtonFails                *obs.Counter
	couplingActive, couplingGrounded                        *obs.Counter
	ccZeroSkips, tbcsHits                                   *obs.Counter
	tier0Hits, tier0Fallbacks, tier0FlipGuards, tier0Reruns *obs.Counter
	passes, recalcWires                                     *obs.Counter
	workerCells, seqCells                                   *obs.Counter
	ecoDirty, ecoReused, ecoExpansions, ecoFallbacks        *obs.Counter
	convergedSkips                                          *obs.Counter
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
		arcEvals:          r.Counter(obs.MArcEvaluations),
		sims:              r.Counter(obs.MSimulations),
		newtonIters:       r.Counter(obs.MNewtonIters),
		newtonFails:       r.Counter(obs.MNewtonFailures),
		couplingActive:    r.Counter(obs.MCouplingActive),
		couplingGrounded:  r.Counter(obs.MCouplingGrounded),
		ccZeroSkips:       r.Counter(obs.MCouplingZeroSkips),
		tbcsHits:          r.Counter(obs.MTBCSReuseHits),
		tier0Hits:         r.Counter(obs.MTier0Hits),
		tier0Fallbacks:    r.Counter(obs.MTier0Fallbacks),
		tier0FlipGuards:   r.Counter(obs.MTier0FlipGuards),
		tier0Reruns:       r.Counter(obs.MTier0Reruns),
		passes:            r.Counter(obs.MPasses),
		recalcWires:       r.Counter(obs.MRecalcWires),
		workerCells:       r.Counter(obs.MWorkerCells),
		seqCells:          r.Counter(obs.MSequentialCells),
		ecoDirty:          r.Counter(obs.MEcoDirtyLines),
		ecoReused:         r.Counter(obs.MEcoReusedLines),
		ecoExpansions:     r.Counter(obs.MEcoConeExpansions),
		ecoFallbacks:      r.Counter(obs.MEcoFullFallbacks),
		convergedSkips:    r.Counter(obs.MPassConvergedSkips),
		workers:           r.Gauge(obs.MWorkers),
		analysisDur:       r.HistogramVec(obs.MAnalysisDuration, obs.DurationBounds, "mode", "corner", "revision"),
		passDur:           r.HistogramVec(obs.MPassDuration, obs.DurationBounds, "mode", "pass"),
		phaseDur:          r.HistogramVec(obs.MPhaseDuration, obs.DurationBounds, "mode", "phase"),
		queueWait:         r.HistogramVec(obs.MQueueWait, obs.DurationBounds, "mode"),
		analyses:          r.CounterVec(obs.MAnalyses, "mode", "corner"),
		attributionBuilds: r.Counter(obs.MAttributionBuilds),
	}
}

// tally counts analysis work in plain fields: each evaluator call's
// Info and each tier-0, coupling and t_bcs decision. Each executor
// goroutine keeps one in a local variable; runPhase sums them into the
// pass's tally at each bucket barrier, and endPass publishes it.
type tally struct {
	calc delaycalc.Info
	// lines counts the cells whose arcs were evaluated.
	lines                                      int64
	tier0Hits, tier0Fallbacks, tier0FlipGuards int64
	couplingActive, couplingGrounded           int64
	zeroSkips, tbcsHits                        int64
}

// addInfo tallies one evaluator call's work.
func (w *tally) addInfo(i delaycalc.Info) {
	w.calc.Requests += i.Requests
	w.calc.Simulations += i.Simulations
	w.calc.CacheHits += i.CacheHits
	w.calc.NewtonIterations += i.NewtonIterations
	w.calc.NewtonFailures += i.NewtonFailures
}

// add sums o into w.
func (w *tally) add(o *tally) {
	w.addInfo(o.calc)
	w.lines += o.lines
	w.tier0Hits += o.tier0Hits
	w.tier0Fallbacks += o.tier0Fallbacks
	w.tier0FlipGuards += o.tier0FlipGuards
	w.couplingActive += o.couplingActive
	w.couplingGrounded += o.couplingGrounded
	w.zeroSkips += o.zeroSkips
	w.tbcsHits += o.tbcsHits
}

// publish adds one pass's tally to the registry's work counters: one
// add per counter.
func (m *engineMetrics) publish(w *tally) {
	m.arcEvals.Add(w.calc.Requests)
	m.sims.Add(w.calc.Simulations)
	m.newtonIters.Add(w.calc.NewtonIterations)
	m.newtonFails.Add(w.calc.NewtonFailures)
	m.couplingActive.Add(w.couplingActive)
	m.couplingGrounded.Add(w.couplingGrounded)
	m.ccZeroSkips.Add(w.zeroSkips)
	m.tbcsHits.Add(w.tbcsHits)
	m.tier0Hits.Add(w.tier0Hits)
	m.tier0Fallbacks.Add(w.tier0Fallbacks)
	m.tier0FlipGuards.Add(w.tier0FlipGuards)
}

// modeLabel / sessionLabels render the session's bounded label tuple
// for the labeled latency families (see DESIGN.md §12).
func (e *Engine) modeLabel() string { return e.opts.Mode.String() }

func (e *Engine) sessionLabels() (mode, corner, revision string) {
	return e.modeLabel(), e.opts.Corner, strconv.FormatUint(e.rev, 10)
}

// passHandle carries a pass's identity, start time and span between
// beginPass and endPass.
type passHandle struct {
	pass  int
	mode  Mode
	start time.Time
	span  *obs.Span
}

// beginPass opens the telemetry scope of one BFS sweep (driver
// goroutine only).
func (e *Engine) beginPass(pass int, mode Mode) *passHandle {
	return &passHandle{
		pass:  pass,
		mode:  mode,
		start: time.Now(),
		span:  e.trace.Begin("pass", 0).Arg("pass", pass).Arg("mode", mode.String()),
	}
}

// endPass closes the scope of the sweep over ds, records the PassStat
// and returns the pass's longest-path bound. The sweep's work and line
// tallies are published here, once per pass, and its work joins the
// run's tally: carried lines count as converged skips in a delta pass;
// a seeded pass (eco non-nil) folds both line tallies into the ECO
// stats.
func (e *Engine) endPass(ph *passHandle, st []netState, ds *dirtySet, eco *ECOStats) float64 {
	longest, _ := e.longest(st)
	w := &ds.tally
	stat := PassStat{
		Pass:              ph.pass,
		Mode:              ph.mode,
		ArcEvaluations:    w.calc.Requests,
		Simulations:       w.calc.Simulations,
		CacheHits:         w.calc.CacheHits,
		NewtonIterations:  w.calc.NewtonIterations,
		Tier0Hits:         w.tier0Hits,
		RecalculatedWires: w.lines,
		LongestPath:       longest,
		Wall:              time.Since(ph.start),
	}
	e.work.add(w)
	e.m.publish(w)
	e.m.recalcWires.Add(stat.RecalculatedWires)
	switch {
	case eco != nil:
		x := ds.expansions.Load()
		eco.DirtyLines += ds.recomputed
		eco.ReusedLines += ds.carried
		eco.ConeExpansions += x
		e.m.ecoDirty.Add(ds.recomputed)
		e.m.ecoReused.Add(ds.carried)
		e.m.ecoExpansions.Add(x)
	case ds.orig != nil:
		stat.ConvergedSkips = ds.carried
		e.m.convergedSkips.Add(ds.carried)
	}
	e.passStats = append(e.passStats, stat)
	if !e.opts.DisableReplay {
		e.replayPasses = append(e.replayPasses, st)
	}
	e.m.passes.Inc()
	e.m.passDur.With(e.modeLabel(), strconv.Itoa(ph.pass)).Observe(stat.Wall.Seconds())
	ph.span.Arg("longest_ns", longest*1e9).
		Arg("arcs", stat.ArcEvaluations).
		Arg("recalc_wires", stat.RecalculatedWires).
		End()
	if e.opts.Events != nil {
		e.opts.Events.Emit("pass", map[string]any{
			"mode":            ph.mode.String(),
			"session_mode":    e.modeLabel(),
			"revision":        e.rev,
			"pass":            ph.pass,
			"longest_ns":      longest * 1e9,
			"arc_evaluations": stat.ArcEvaluations,
			"simulations":     stat.Simulations,
			"recalc_wires":    stat.RecalculatedWires,
			"converged_skips": stat.ConvergedSkips,
			"wall_ms":         float64(stat.Wall) / 1e6,
		})
	}
	return longest
}
