package main

import (
	"time"

	"xtalksta"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/obs"
)

// layers accumulates the traced side's per-layer timings and work
// counts. Times come from the benchmark's own clocks around calls into
// each layer and from the program's existing spans; counts come from
// Result, the calculator's Counters and the program's registry.
type layers struct {
	reg   *obs.Registry
	spans *spanLog
	tr    *obs.Tracer
	calc  *timedCalc

	// Set-up layers, timed once while building the traced design.
	generate, build, extract, compile time.Duration

	// Per-op samples. run/eval/self cover the analysis sessions of the
	// table and warm ops; edit/recompile/seeded the ECO ops.
	ops                     int
	run, eval, self         samples
	edit, recompile, seeded samples
	curRun, curEval         time.Duration

	// Work summed over the measured ops.
	sims, arcEvals, passes, converged int64
	tier0Hits, tier0Fallbacks         int64
	dirty, reused                     int64
	steps, rejections                 int64
	counters                          delaycalc.Counters
	calls                             calcTotals
}

func newLayers() *layers {
	l := &layers{reg: obs.NewRegistry(), spans: newSpanLog()}
	l.tr = obs.NewTracer(l.spans)
	return l
}

// mark is the state of every counter source at the start of a call.
type mark struct {
	counters          delaycalc.Counters
	calls             calcTotals
	steps, rejections int64
	at                time.Time
}

func (l *layers) begin(s *side) mark {
	return mark{
		counters:   s.d.Calc.Counters(),
		calls:      l.calc.totals(),
		steps:      l.reg.Counter(obs.MSimSteps).Value(),
		rejections: l.reg.Counter(obs.MSimStepRejections).Value(),
		at:         time.Now(),
	}
}

// end adds the work done since m to the running totals.
func (l *layers) end(s *side, m mark, res *xtalksta.AnalysisResult) {
	elapsed := time.Since(m.at)
	calls := l.calc.totals().sub(m.calls)
	l.curRun += elapsed
	l.curEval += calls.covered
	l.calls = l.calls.add(calls)
	c := s.d.Calc.Counters().Sub(m.counters)
	l.counters = delaycalc.Counters{
		Requests:         l.counters.Requests + c.Requests,
		Simulations:      l.counters.Simulations + c.Simulations,
		CacheHits:        l.counters.CacheHits + c.CacheHits,
		NewtonIterations: l.counters.NewtonIterations + c.NewtonIterations,
		NewtonFailures:   l.counters.NewtonFailures + c.NewtonFailures,
	}
	l.steps += l.reg.Counter(obs.MSimSteps).Value() - m.steps
	l.rejections += l.reg.Counter(obs.MSimStepRejections).Value() - m.rejections

	l.sims += res.Simulations
	l.arcEvals += res.ArcEvaluations
	l.passes += int64(res.Passes)
	for _, ps := range res.PassStats {
		l.converged += ps.ConvergedSkips
	}
	l.tier0Hits += res.Tier0Hits
	l.tier0Fallbacks += res.Tier0Fallbacks
	if res.ECO != nil {
		l.dirty += res.ECO.DirtyLines
		l.reused += res.ECO.ReusedLines
	}
}

// measure runs one analysis call and accounts its work.
func (l *layers) measure(s *side, call func() (*xtalksta.AnalysisResult, error)) (*xtalksta.AnalysisResult, error) {
	m := l.begin(s)
	res, err := call()
	if err == nil {
		l.end(s, m, res)
	}
	return res, err
}

// startOp clears the per-op partial sums.
func (l *layers) startOp() { l.curRun, l.curEval = 0, 0 }

// endOp closes one successful op. Session ops (table, warm) record the
// analysis time split into evaluator time and the engine's own time.
func (l *layers) endOp(session bool) {
	if session {
		l.run = append(l.run, l.curRun)
		l.eval = append(l.eval, l.curEval)
		l.self = append(l.self, l.curRun-l.curEval)
	}
	l.ops++
}

// reset drops everything accumulated so far except the set-up timings,
// so that set-up work (warm-up table, cold fill, base analysis) is not
// counted as op work.
func (l *layers) reset() {
	*l = layers{
		reg: l.reg, spans: l.spans, tr: l.tr, calc: l.calc,
		generate: l.generate, build: l.build, extract: l.extract, compile: l.compile,
	}
}

func (a calcTotals) add(b calcTotals) calcTotals {
	return calcTotals{
		requests: a.requests + b.requests,
		hits:     a.hits + b.hits,
		misses:   a.misses + b.misses,
		hitNs:    a.hitNs + b.hitNs,
		missNs:   a.missNs + b.missNs,
		covered:  a.covered + b.covered,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// memDelta is the Go runtime's allocation and GC work over the plain
// side's ops in a traced run.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	ops        int
}

// layerMetrics renders the per-layer metrics. Counts are per op (mean
// over the measured ops), times are per-op medians unless named per
// call, and a metric the workload does not exercise reads 0.
func (l *layers) layerMetrics(mem memDelta, overheadPct float64) map[string]metric {
	n := float64(l.ops)
	per := func(v int64) float64 {
		if l.ops == 0 {
			return 0
		}
		return float64(v) / n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := l.counters
	m := map[string]metric{
		"circuitgen.generate_ms": {ms(l.generate), "ms"},
		"layout.build_ms":        {ms(l.build), "ms"},
		"layout.extract_ms":      {ms(l.extract), "ms"},
		"core.compile_ms":        {ms(l.compile), "ms"},

		"spice.sims":              {per(l.sims), "count"},
		"spice.steps":             {per(l.steps), "count"},
		"spice.step_rejections":   {per(l.rejections), "count"},
		"spice.ns_per_step":       {ratio(float64(l.calls.missNs), float64(l.steps)), "ns"},
		"solver.newton_iters":     {per(c.NewtonIterations), "count"},
		"solver.newton_failures":  {per(c.NewtonFailures), "count"},
		"solver.iters_per_step":   {ratio(float64(c.NewtonIterations), float64(l.steps)), "ratio"},
		"delaycalc.miss_ns":       {ratio(float64(l.calls.missNs), float64(l.calls.misses)), "ns"},
		"delaycalc.eval_ms":       {l.eval.medianMs(), "ms"},
		"delaycalc.hit_ns":        {ratio(float64(l.calls.hitNs), float64(l.calls.hits)), "ns"},
		"delaycalc.hit_ratio":     {ratio(float64(c.CacheHits), float64(c.Requests)), "ratio"},
		"core.run_ms":             {l.run.medianMs(), "ms"},
		"core.self_ms":            {l.self.medianMs(), "ms"},
		"core.passes":             {per(l.passes), "count"},
		"core.arc_evals":          {per(l.arcEvals), "count"},
		"core.converged_skips":    {per(l.converged), "count"},
		"core.tier0_hits":         {per(l.tier0Hits), "count"},
		"core.tier0_fallbacks":    {per(l.tier0Fallbacks), "count"},
		"core.tier0_skip_ratio":   {ratio(float64(l.tier0Hits), float64(l.tier0Hits+l.arcEvals)), "ratio"},
		"incremental.edit_ms":     {l.edit.medianMs(), "ms"},
		"core.recompile_ms":       {l.recompile.medianMs(), "ms"},
		"core.seeded_run_ms":      {l.seeded.medianMs(), "ms"},
		"incremental.dirty_lines": {per(l.dirty), "count"},
		"incremental.reuse_ratio": {ratio(float64(l.reused), float64(l.dirty+l.reused)), "ratio"},

		"go.alloc_mb_per_op":  {ratio(float64(mem.allocBytes)/(1<<20), float64(mem.ops)), "MiB"},
		"go.gc_cycles_per_op": {ratio(float64(mem.gcCycles), float64(mem.ops)), "count"},
		"trace.overhead_pct":  {overheadPct, "%"},
	}
	return m
}
