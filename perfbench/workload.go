package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/incremental"
)

// workload is one named benchmark workload. Every op is closed-loop
// with a single caller: the next op starts when the previous one has
// returned and been checked.
type workload struct {
	name    string
	scale   float64
	workers int
	// setup prepares a side: builds the design and warms whatever the
	// workload needs warm. It is untimed except as part of setup_s.
	setup func(s *side) error
	// op runs one operation and returns the time of its timed region
	// (input generation and checks are outside it).
	op func(s *side) (opTime, error)
	// check validates the results of the latest op (outside timing).
	check func(s *side) error
	// finish runs the end-of-run checks (outside timing).
	finish func(s *side) error
}

// preset is the circuit every workload analyzes: the paper's s35932.
const preset = xtalksta.S35932

// ecoBatch is the number of edits per ECO batch, the -eco-random
// default of cmd/xtalksta.
const ecoBatch = 4

var workloads = map[string]*workload{
	"table": {
		name: "table", scale: 0.05, workers: 1,
		setup: setupTable, op: opTable, check: checkTable,
		finish: func(*side) error { return nil },
	},
	"warm": {
		name: "warm", scale: 1, workers: 2,
		setup: setupWarm, op: opWarm, check: checkWarm,
		finish: func(*side) error { return nil },
	},
	"eco": {
		name: "eco", scale: 1, workers: 2,
		setup: setupECO, op: opECO, check: checkECO,
		finish: finishECO,
	},
}

// analysisOptions is the analysis configuration cmd/xtalksta uses by
// default (tier-0 on at its default margin) with the workload's worker
// count. It is the only place the benchmark sets the tier-0 switch.
func analysisOptions(mode xtalksta.Mode, workers int) xtalksta.AnalysisOptions {
	return xtalksta.AnalysisOptions{Mode: mode, Workers: workers, Tier0: true}
}

// side is one instance of a workload: a design and the state its ops
// carry from one to the next. A traced side (lay != nil) drives the
// same operations through the benchmark's per-layer timers.
type side struct {
	w    *workload
	seed int64
	d    *xtalksta.Design
	lay  *layers

	// cd is the traced side's compiled snapshot (built under the timed
	// evaluator, once, in set-up).
	cd *core.Compiled
	// want is what every op must reproduce bit for bit (table: the
	// warm-up table; warm: the cold fill).
	want []*xtalksta.AnalysisResult
	// last holds the results of the latest op.
	last []*xtalksta.AnalysisResult
	// prev and rng carry the ECO chain: the latest result and the
	// seeded edit stream.
	prev *xtalksta.AnalysisResult
	rng  *rand.Rand
	// times and cpu are the wall-clock and CPU times of the ops that
	// succeeded.
	times samples
	cpu   samples
}

func newSide(w *workload, seed int64, traced bool) *side {
	s := &side{w: w, seed: seed}
	if traced {
		s.lay = newLayers()
	}
	return s
}

// build constructs the design. The plain side calls the facade's
// GeneratePreset; the traced side performs the same two steps itself so
// that circuit generation is timed on its own, and attaches the
// program's registry and tracer to layout and the delay calculator.
func (s *side) build() error {
	if s.lay == nil {
		d, err := xtalksta.GeneratePreset(preset, s.w.scale, xtalksta.Defaults())
		s.d = d
		return err
	}
	l := s.lay
	bopts := xtalksta.Defaults()
	bopts.Layout.Trace = l.tr
	bopts.Layout.Metrics = l.reg
	bopts.Calc.Metrics = l.reg

	sp := l.tr.Begin("circuitgen.generate", 0)
	t0 := time.Now()
	c, err := circuitgen.GeneratePreset(preset, s.w.scale)
	l.generate = time.Since(t0)
	sp.End()
	if err != nil {
		return err
	}
	d, err := xtalksta.FromCircuit(c, bopts)
	if err != nil {
		return err
	}
	s.d = d
	l.build = l.spans.sumDur("place") + l.spans.sumDur("route")
	l.extract = l.spans.sumDur("extract")
	l.calc = &timedCalc{inner: d.Calc}

	sp = l.tr.Begin("core.compile", 0)
	t0 = time.Now()
	s.cd, err = core.Compile(d.Circuit, l.calc, s.coreOptions(xtalksta.Iterative))
	l.compile = time.Since(t0)
	sp.End()
	return err
}

// coreOptions is analysisOptions as the facade hands it to the engine:
// the design's primary-output load resolved, and on the traced side the
// program's registry and tracer attached.
func (s *side) coreOptions(mode xtalksta.Mode) xtalksta.AnalysisOptions {
	o := analysisOptions(mode, s.w.workers)
	if s.lay != nil {
		o.POCap = xtalksta.Defaults().POCap
		o.Metrics = s.lay.reg
		o.Trace = s.lay.tr
	}
	return o
}

// session runs one analysis on the traced side: a core session over
// the compiled snapshot with the timed evaluator, as Design.Analyze
// does with Design.Calc.
func (s *side) session(mode xtalksta.Mode) (*xtalksta.AnalysisResult, error) {
	l := s.lay
	sp := l.tr.Begin("core.run", 0).Arg("mode", mode.String())
	defer sp.End()
	eng, err := core.NewSession(s.cd, l.calc, s.coreOptions(mode))
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// ---- table: the paper's five-mode experiment, cold ----

func setupTable(s *side) error {
	if err := s.build(); err != nil {
		return err
	}
	if _, err := opTable(s); err != nil {
		return fmt.Errorf("warm-up table: %w", err)
	}
	s.want = s.last
	return checkTableShape(s.want)
}

// opTable runs the five analyses, clearing the characterization cache
// before each one as AnalyzeAllOpts does, so every mode pays its own
// characterization like the paper's standalone runtimes.
func opTable(s *side) (opTime, error) {
	if s.lay == nil {
		c := startClock()
		res, err := s.d.AnalyzeAllOpts(analysisOptions(0, s.w.workers))
		t := c.stop()
		s.last = res
		return t, err
	}
	var out []*xtalksta.AnalysisResult
	s.lay.startOp()
	c := startClock()
	for _, m := range xtalksta.Modes() {
		s.lay.calc.ClearCache()
		res, err := s.lay.measure(s, func() (*xtalksta.AnalysisResult, error) { return s.session(m) })
		if err != nil {
			return c.stop(), fmt.Errorf("%s: %w", m, err)
		}
		out = append(out, res)
	}
	t := c.stop()
	s.lay.endOp(true)
	s.last = out
	return t, nil
}

func checkTable(s *side) error {
	if err := checkTableShape(s.last); err != nil {
		return err
	}
	for i, r := range s.last {
		if err := sameBits(r, s.want[i]); err != nil {
			return fmt.Errorf("%s differs from the warm-up table: %w", r.Mode, err)
		}
	}
	return nil
}

// checkTableShape checks the paper's ordering of the five bounds
// (best case <= iterative <= one-step <= worst case) and each delay
// against the reference delays recorded with the benchmark.
func checkTableShape(res []*xtalksta.AnalysisResult) error {
	if len(res) != len(xtalksta.Modes()) {
		return fmt.Errorf("table has %d rows, want %d", len(res), len(xtalksta.Modes()))
	}
	by := map[xtalksta.Mode]float64{}
	for _, r := range res {
		by[r.Mode] = r.LongestPath
		ref, ok := referenceNs[r.Mode.String()]
		if !ok {
			return fmt.Errorf("no reference delay for %s", r.Mode)
		}
		if got := r.LongestPath * 1e9; math.Abs(got-ref) > refTolerance*ref {
			return fmt.Errorf("%s: %.6f ns is more than %.1f%% from the reference %.6f ns",
				r.Mode, got, 100*refTolerance, ref)
		}
	}
	best, iter := by[xtalksta.BestCase], by[xtalksta.Iterative]
	one, worst := by[xtalksta.OneStep], by[xtalksta.WorstCase]
	if !(best <= iter && iter <= one && one <= worst) {
		return fmt.Errorf("bounds out of order: best %g, iterative %g, one-step %g, worst %g", best, iter, one, worst)
	}
	return nil
}

// ---- warm: Iterative re-analysis with a warm characterization cache ----

func setupWarm(s *side) error {
	if err := s.build(); err != nil {
		return err
	}
	// The cold fill: one Iterative analysis characterizes every arc.
	if _, err := opWarm(s); err != nil {
		return fmt.Errorf("cold fill: %w", err)
	}
	s.want = s.last
	return nil
}

func opWarm(s *side) (opTime, error) {
	if s.lay == nil {
		c := startClock()
		res, err := s.d.Analyze(analysisOptions(xtalksta.Iterative, s.w.workers))
		t := c.stop()
		s.last = []*xtalksta.AnalysisResult{res}
		return t, err
	}
	s.lay.startOp()
	c := startClock()
	res, err := s.lay.measure(s, func() (*xtalksta.AnalysisResult, error) { return s.session(xtalksta.Iterative) })
	t := c.stop()
	s.last = []*xtalksta.AnalysisResult{res}
	if err == nil {
		s.lay.endOp(true)
	}
	return t, err
}

func checkWarm(s *side) error {
	r := s.last[0]
	if r.Simulations != 0 {
		return fmt.Errorf("warm re-analysis ran %d simulations, want 0", r.Simulations)
	}
	return sameBits(r, s.want[0])
}

// ---- eco: seeded edit batches re-analyzed incrementally ----

func setupECO(s *side) error {
	if err := s.build(); err != nil {
		return err
	}
	var err error
	if s.lay == nil {
		s.prev, err = s.d.Analyze(analysisOptions(xtalksta.Iterative, s.w.workers))
	} else {
		s.prev, err = s.session(xtalksta.Iterative)
	}
	if err != nil {
		return fmt.Errorf("base analysis: %w", err)
	}
	s.rng = rand.New(rand.NewSource(s.seed))
	return nil
}

// opECO draws the next batch from the seeded stream against the current
// revision (untimed) and re-analyzes incrementally. The plain side times
// Reanalyze(prev, batch); the traced side times Design.Edit and
// Reanalyze(prev, nil) separately.
func opECO(s *side) (opTime, error) {
	batch := incremental.RandomBatch(s.d.Circuit, s.rng, ecoBatch)
	if s.lay == nil {
		c := startClock()
		res, err := s.d.Reanalyze(s.prev, batch)
		t := c.stop()
		if err != nil {
			return t, err
		}
		s.prev, s.last = res, []*xtalksta.AnalysisResult{res}
		return t, nil
	}
	l := s.lay
	l.startOp()
	c := startClock()
	sp := l.tr.Begin("incremental.edit", 0).Arg("edits", len(batch))
	err := s.d.Edit(batch...)
	edit := time.Since(c.wall)
	sp.End()
	if err != nil {
		return c.stop(), err
	}
	l.spans.forget("eco-analysis")
	var re time.Duration
	res, err := l.measure(s, func() (*xtalksta.AnalysisResult, error) {
		sp := l.tr.Begin("core.reanalyze", 0)
		defer sp.End()
		t1 := time.Now()
		defer func() { re = time.Since(t1) }()
		return s.d.Reanalyze(s.prev, nil)
	})
	t := c.stop()
	if err != nil {
		return t, err
	}
	seeded := l.spans.lastDur("eco-analysis")
	if seeded <= 0 || seeded >= re {
		return t, fmt.Errorf("eco-analysis span %v does not fit inside Reanalyze %v", seeded, re)
	}
	l.edit = append(l.edit, edit)
	l.seeded = append(l.seeded, seeded)
	l.recompile = append(l.recompile, re-seeded)
	l.endOp(false)
	s.prev, s.last = res, []*xtalksta.AnalysisResult{res}
	return t, nil
}

func checkECO(s *side) error {
	r := s.last[0]
	if r.ECO == nil {
		return fmt.Errorf("Reanalyze result carries no ECO statistics")
	}
	if r.ECO.FullFallback {
		return fmt.Errorf("Reanalyze fell back to a full analysis")
	}
	return nil
}

// finishECO checks the end of the chain against a from-scratch analysis
// of the edited design.
func finishECO(s *side) error {
	full, err := s.d.Analyze(analysisOptions(xtalksta.Iterative, s.w.workers))
	if err != nil {
		return fmt.Errorf("from-scratch analysis: %w", err)
	}
	if err := sameBits(s.prev, full); err != nil {
		return fmt.Errorf("last Reanalyze differs from a from-scratch Analyze: %w", err)
	}
	return nil
}

// sameBits reports whether two results agree bit for bit: longest path,
// endpoint and every arrival on the reported critical path.
func sameBits(a, b *xtalksta.AnalysisResult) error {
	if math.Float64bits(a.LongestPath) != math.Float64bits(b.LongestPath) {
		return fmt.Errorf("longest path %v vs %v", a.LongestPath, b.LongestPath)
	}
	if a.Endpoint != b.Endpoint {
		return fmt.Errorf("endpoint %v vs %v", a.Endpoint, b.Endpoint)
	}
	if len(a.Path) != len(b.Path) {
		return fmt.Errorf("critical path has %d vs %d steps", len(a.Path), len(b.Path))
	}
	for i := range a.Path {
		p, q := a.Path[i], b.Path[i]
		if p.Net != q.Net || p.Dir != q.Dir || p.Cell != q.Cell ||
			math.Float64bits(p.Arrival) != math.Float64bits(q.Arrival) {
			return fmt.Errorf("critical path step %d: %+v vs %+v", i, p, q)
		}
	}
	return nil
}
