// Package core implements the paper's contribution: static timing
// analysis of synchronous circuits whose gate delays account for
// capacitive coupling. It provides the five analyses compared in the
// paper's evaluation (§6):
//
//	BestCase      — all coupling caps grounded at face value (coupling
//	                ignored; the paper's comparison baseline).
//	StaticDoubled — coupling caps grounded with doubled value (the
//	                classical passive approach).
//	WorstCase     — every coupling cap couples actively per the §2
//	                model (permanent worst-case coupling).
//	OneStep       — §5.1: per-arc best-case calculation fixes t_bcs;
//	                only neighbors that can still switch opposite after
//	                t_bcs (or are not yet calculated) couple actively.
//	Iterative     — §5.2: the one-step analysis repeated with stored
//	                quiescent times until the longest-path delay stops
//	                improving; optionally with the Esperance speedup
//	                (only wires on long paths are recalculated).
//
// All five guarantee an upper bound on the longest path delay; they
// differ in how tight that bound is and what it costs.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/waveform"
)

// Mode selects the analysis.
type Mode int

// The five analyses of the paper's Tables 1–3.
const (
	BestCase Mode = iota
	StaticDoubled
	WorstCase
	OneStep
	Iterative
)

// String names the mode as in the paper's tables.
func (m Mode) String() string {
	switch m {
	case BestCase:
		return "Best case"
	case StaticDoubled:
		return "Static doubled"
	case WorstCase:
		return "Worst case"
	case OneStep:
		return "One step"
	case Iterative:
		return "Iterative"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes lists all analyses in table order.
func Modes() []Mode {
	return []Mode{BestCase, StaticDoubled, WorstCase, OneStep, Iterative}
}

// Options tunes an analysis run.
type Options struct {
	Mode Mode
	// Esperance enables the Benkoski-style speedup in Iterative mode:
	// refinement passes only recalculate wires whose esperance (arrival
	// + remaining path) reaches within esperanceMargin of the longest
	// path.
	Esperance bool
	// Windows (extension beyond the paper) adds the earliest-activity
	// bound to the Iterative refinement: an aggressor couples only when
	// its activity window overlaps the victim's sensitive window. See
	// windows.go.
	Windows bool
	// PiModel (extension beyond the paper) replaces the lumped-load +
	// Elmore wire treatment by a π-model per net: half the wire cap at
	// the driver, the wire resistance to a far node carrying the other
	// half plus the sink pins and coupling caps, with the delay
	// measured at the far (receiver) node — resistive shielding, the
	// limitation the paper's §2 explicitly concedes.
	PiModel bool
	// Workers evaluates cells concurrently when > 1, pipelining them
	// through the dataflow wavefront as their dependencies complete.
	// Results are identical to the sequential run (the one-step
	// neighbor rule is rank-based, see levels.go and dataflow.go).
	Workers int
	// PISlew is the transition time assumed at primary inputs (default
	// 0.2 ns).
	PISlew float64
	// PISlews overrides the input transition time per primary input
	// (ECO input-slew edits); nets absent from the map use PISlew.
	PISlews map[netlist.NetID]float64
	// DFFOutSlew is the transition time of flip-flop outputs (default
	// 0.15 ns).
	DFFOutSlew float64
	// POCap is the load of a primary-output pad (default 30 fF).
	POCap float64
	// CellSizes overrides per-cell drive strength multipliers (default
	// 1; clock-tree buffers are additionally scaled by the library's
	// ClockBufMult). Used by the timing-driven sizing optimizer.
	CellSizes map[netlist.CellID]float64
	// Tier0 enables tiered delay evaluation (DESIGN.md §14): candidate
	// arcs are bracketed analytically and dispatched to the exact
	// Newton evaluator only when near-critical, dominance-unresolved or
	// coupling-ambiguous. Results are bit-identical to the all-Newton
	// run — every pruning rule is proof-carrying, evaluated arcs are
	// audited against their brackets, and a violated bracket discards
	// the run and recomputes all-Newton (Result.Tier0Rerun). Ignored
	// (stays off) under Esperance, Windows and seeded re-analysis
	// (RunSeeded; a full fallback still uses it), and with evaluators
	// that cannot bound arcs.
	Tier0 bool
	// DisableReplay turns off the per-pass state capture that feeds
	// Result.Replay (the seed for RunSeeded): the replay keeps every
	// pass's net-state slice and a copy of the best-case arc cache alive
	// with the Result. Analyses that never feed an incremental re-run —
	// optimizer inner loops, corner sweeps — should disable it.
	DisableReplay bool
	// Corner labels the process corner the session analyzes under
	// ("TT" when empty). Purely observational: it tags the labeled
	// latency metrics and event-log records; the electrical corner is
	// fixed by the calculator.
	Corner string
	// Attribution builds Result.Attribution: the top-K endpoint paths
	// with per-arc gate/wire/coupling-slowdown contributions and the
	// surviving aggressor sets. Off by default — the build re-evaluates
	// the reported paths' arcs (cache-warm, but not free) after the
	// analysis proper; with it off the run is bit-identical to one
	// without the field.
	Attribution bool
	// AttributionTopK bounds the number of attributed endpoint paths
	// (default 10 when 0; negative values are rejected by NewSession).
	AttributionTopK int
	// Events, when set, receives one structured JSONL record per
	// analysis, refinement pass and ECO batch (see obs.EventLog).
	Events *obs.EventLog
	// Metrics, when set, receives engine-wide counters (arc
	// evaluations, Newton iterations, coupling decisions, esperance
	// skips, worker utilization, ...) under the obs.M* names.
	// Counters accumulate across runs sharing a registry.
	Metrics *obs.Registry
	// Trace, when set, receives per-pass/per-phase/per-worker spans;
	// pair it with an obs.ChromeTrace sink to render the run as a
	// chrome://tracing timeline.
	Trace *obs.Tracer
}

// Fixed analysis parameters.
const (
	// esperanceMargin is the relative margin of the Esperance filter.
	esperanceMargin = 0.05
	// maxPasses bounds the iterative refinement.
	maxPasses = 10
	// tier0Margin is the relative margin of the tier-0 criticality gate:
	// an arc whose bracketed arrival upper bound reaches within this
	// fraction of the analytic longest-path frontier at its rank is
	// always dispatched exactly. Policy, not correctness — exactness
	// holds for any margin (TestTier0MarginSweepParity).
	tier0Margin = 0.05
)

func (o Options) withDefaults() Options {
	if o.PISlew == 0 {
		o.PISlew = 0.2e-9
	}
	if o.DFFOutSlew == 0 {
		o.DFFOutSlew = 0.15e-9
	}
	if o.POCap == 0 {
		o.POCap = 30e-15
	}
	if o.Corner == "" {
		o.Corner = "TT"
	}
	if o.AttributionTopK == 0 {
		o.AttributionTopK = 10
	}
	return o
}

const (
	dirRise = 0
	dirFall = 1
)

func dirOf(i int) waveform.Direction {
	if i == dirRise {
		return waveform.Rising
	}
	return waveform.Falling
}

// arcPred records the worst arc into a (net, dir) for path recovery.
type arcPred struct {
	valid   bool
	cell    netlist.CellID
	fromNet netlist.NetID
	fromDir int
}

// netState is the per-pass timing state of one net.
type netState struct {
	arrival    [2]float64 // 50% crossing time at the driver pin
	slew       [2]float64
	quiet      [2]float64 // upper bound on the completion of any event
	pred       [2]arcPred
	calculated bool
}

// netInfo is the pass-invariant electrical summary of a net.
type netInfo struct {
	baseCap float64 // grounded load excluding coupling caps
	cwire   float64 // wire portion of baseCap
	rwire   float64 // wire resistance (π-model extension)
	sumCc   float64
	// ccLo/ccHi span the net's entries in the compiled coupling CSR
	// (Compiled.cc) — the SoA replacement for a per-net []Coupling.
	ccLo, ccHi    int32
	sizeMult      float64
	maxSinkElmore float64
	driverKind    netlist.GateKind
	driverNIn     int
}

// PathStep is one hop of the reported critical path.
type PathStep struct {
	Net     string
	Dir     waveform.Direction
	Arrival float64
	Cell    string // driving cell ("" for launch points)
}

// Endpoint describes where the longest path terminates.
type Endpoint struct {
	Net  string
	Kind string // "DFF/D" or "PO"
	Cell string // capturing flip-flop, if any
}

// Result reports one analysis.
type Result struct {
	Mode Mode
	// LongestPath is the worst arrival over all endpoints (seconds).
	LongestPath float64
	Endpoint    Endpoint
	Path        []PathStep
	// Passes counts full BFS sweeps (1 for the single-pass modes).
	Passes int
	// PassStats is the per-pass work/tightness breakdown, in pass
	// order. For Iterative the LongestPath column is non-increasing up
	// to delay-calculator quantization noise.
	PassStats []PassStat
	// Runtime is the wall-clock analysis time.
	Runtime time.Duration
	// ArcEvaluations counts delay-calculator requests; Simulations
	// counts the subset that missed the characterization cache;
	// CacheHits the subset served from it.
	ArcEvaluations, Simulations, CacheHits int64
	// Tier0Hits counts evaluator calls the tier-0 dispatcher avoided
	// (dominance skips, elided best-case evaluations, memo reuses);
	// Tier0Fallbacks the candidate arcs dispatched exactly because they
	// were near-critical or unboundable; Tier0FlipGuards the coupling
	// comparisons whose t_bcs bracket straddled a neighbor's quiescent
	// time and forced the exact best-case evaluation. All zero with
	// Options.Tier0 off and on seeded runs.
	Tier0Hits, Tier0Fallbacks, Tier0FlipGuards int64
	// Tier0Rerun reports that a tier-0 bracket was violated, so the
	// tiered run was discarded and the analysis recomputed all-Newton
	// (the reported delays are the exact ones; the work counters and
	// the wall time include the discarded run, the Tier0* counters are
	// zero).
	Tier0Rerun bool
	// WireDelayOnLongestPath sums the Elmore wire delays along the
	// reported path (the §6 wire-vs-coupling comparison).
	WireDelayOnLongestPath float64
	// Replay is the stored per-pass state an incremental re-analysis
	// seeds clean lines from (nil when Options.DisableReplay is set).
	Replay *ReplayState
	// ECO is the work breakdown of a seeded run (nil for full runs).
	ECO *ECOStats
	// Attribution is the per-arc breakdown of the top-K endpoint paths
	// (nil unless Options.Attribution is set).
	Attribution *Attribution
}

// Engine is one analysis session over a compiled snapshot: the
// embedded *Compiled carries every immutable, shareable artifact
// (circuit, net summaries, levels, ranks, dataflow graphs), while the
// Engine itself holds only per-run mutable state. Sessions over the
// same Compiled are independent and may run concurrently; a single
// Engine is not safe for concurrent Run calls.
type Engine struct {
	*Compiled
	Calc delaycalc.Evaluator

	opts Options
	// tier0Margin is the session's copy of the tier0Margin constant
	// (in-package tests sweep it before Run).
	tier0Margin float64
	// Telemetry plumbing: m is never nil (unregistered instruments when
	// Options.Metrics is nil); trace may be nil (no-op safe).
	m         *engineMetrics
	trace     *obs.Tracer
	passStats []PassStat
	// earliestStart holds per-(net, dir) earliest transition-start
	// bounds when Options.Windows is active (nil otherwise).
	earliestStart [][2]float64
	// bcs caches best-case arc results across passes, indexed by
	// [out net − 1][pin*2 + dOut]. Exactly one worker owns a cell within
	// a pass and passes are barrier-separated, so the slots need no
	// locking (see dataflow.go).
	bcs [][]bcsEntry
	// t0 is the tiered-dispatch state when Options.Tier0 is active for
	// this analysis (see tier0.go); nil otherwise. tier0Rerun records
	// that the analysis in flight discarded a tainted tiered run.
	t0         *tier0Run
	tier0Rerun bool
	// dirtyPool recycles the sweeps' dirty sets across passes and runs
	// (driver goroutine only).
	dirtyPool []*dirtySet
	// Replay capture (eco.go): the per-pass state slices and the raw
	// min-pass outputs, reset per analysis, harvested by takeReplay.
	replayPasses             [][]netState
	replayEarly, replaySlews [][2]float64
	// Final-pass evalArc context, captured by runPasses for the
	// attribution rebuild: the quiescent-time snapshot the last executed
	// sweep classified against (nil for first/single passes) and that
	// sweep's mode (OneStep for the Iterative seed pass).
	finalQuietPrev [][2]float64
	finalPassMode  Mode
	// created/queueWaitDone time the session's queue wait: the gap
	// between NewSession and the first analysis start, observed once.
	created       time.Time
	queueWaitDone bool
}

type endpointRef struct {
	net   netlist.NetID
	cell  netlist.CellID // NoCell for POs
	extra float64        // wire delay to the endpoint pin
}

// NewEngine prepares a single-use engine: Compile plus NewSession in
// one step. The circuit must be lowered (only INV, NAND, NOR, DFF
// cells) and carry extracted parasitics. Callers that analyze the same
// circuit repeatedly should Compile once and open sessions per run.
func NewEngine(c *netlist.Circuit, calc delaycalc.Evaluator, opts Options) (*Engine, error) {
	cd, err := Compile(c, calc, opts)
	if err != nil {
		return nil, err
	}
	return NewSession(cd, calc, opts)
}

// piSlewFor returns the input transition time of a primary input,
// honoring per-net ECO overrides.
func (e *Engine) piSlewFor(net netlist.NetID) float64 {
	if s, ok := e.opts.PISlews[net]; ok && s > 0 {
		return s
	}
	return e.opts.PISlew
}

// Run executes the configured analysis.
func (e *Engine) Run() (*Result, error) { return e.run(nil, nil) }

// run executes a full analysis (prev == nil) or one seeded from prev
// (RunSeeded, with the seed mask), and fills the result.
func (e *Engine) run(prev *ReplayState, seed []bool) (*Result, error) {
	start := time.Now()
	e.Calc.ResetStats()
	res := &Result{Mode: e.opts.Mode}
	var seedNets int64
	base := prev // the replay the passes seed from; nil for a full run
	if prev != nil {
		res.ECO = &ECOStats{}
		for _, s := range seed {
			if s {
				seedNets++
			}
		}
		if (e.opts.Mode == Iterative && e.opts.Esperance) || !e.seedableTopology() {
			// Esperance's critical mask is a function of the global longest
			// path, not of local divergence — a seeded run cannot reproduce
			// which nets the full run would have skipped. Fall back.
			res.ECO.FullFallback = true
			e.m.ecoFallbacks.Inc()
			base = nil
		}
	}
	var eco *ECOStats // the seeded passes' tallies
	if base != nil {
		eco = res.ECO
	}
	st, passes, err := e.analyze(base, seed, eco)
	if err != nil {
		return nil, err
	}
	res.Passes = passes
	res.PassStats = append([]PassStat(nil), e.passStats...)
	e.finish(res, st)
	res.Replay = e.takeReplay()
	if prev != nil && res.Replay != nil {
		res.Replay.rev = prev.rev
	}
	res.Runtime = time.Since(start)
	e.fillWork(res)
	if e.opts.Attribution {
		attr, err := e.buildAttribution(st)
		if err != nil {
			return nil, err
		}
		res.Attribution = attr
	}
	if prev == nil {
		e.emitAnalysisEvent("analysis", res, nil)
		return res, nil
	}
	e.emitAnalysisEvent("eco", res, map[string]any{
		"base_revision":   prev.rev,
		"seed_nets":       seedNets,
		"dirty_lines":     res.ECO.DirtyLines,
		"reused_lines":    res.ECO.ReusedLines,
		"cone_expansions": res.ECO.ConeExpansions,
		"full_fallback":   res.ECO.FullFallback,
	})
	return res, nil
}

// analyze produces the final-pass netState of the configured analysis
// and the number of BFS passes it took (Run, RunSeeded, Report and
// PathTo all build on it): full, or seeded from prev when eco is
// non-nil. It owns the run-level telemetry scope: the analysis span, the
// per-pass stats and the delay-calculator counter deltas pushed into the
// metrics registry. A run whose tier-0 brackets broke is discarded and
// recomputed all-Newton.
func (e *Engine) analyze(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	t0 := e.beginAnalysisTelemetry()
	defer e.endAnalysisTelemetry(t0)
	e.passStats = nil
	e.replayPasses, e.replayEarly, e.replaySlews = nil, nil, nil
	c0 := e.calcCounters()
	name := "analysis"
	if prev != nil {
		name = "eco-analysis"
	}
	span := e.trace.Begin(name, 0).Arg("mode", e.opts.Mode.String())
	if err := e.setupTier0(prev != nil); err != nil {
		return nil, 0, err
	}
	st, passes, err := e.runPasses(prev, seed, eco)
	if err == nil && e.discardTainted() {
		// Only a full run uses tier-0, so there is no ECO accounting to
		// drop.
		st, passes, err = e.runPasses(nil, nil, nil)
	}
	span.Arg("passes", passes)
	if eco != nil {
		span.Arg("dirty_lines", eco.DirtyLines).
			Arg("reused_lines", eco.ReusedLines).
			Arg("cone_expansions", eco.ConeExpansions)
	}
	span.End()
	d := e.calcCounters().Sub(c0)
	e.m.arcEvals.Add(d.Requests)
	e.m.sims.Add(d.Simulations)
	e.m.newtonIters.Add(d.NewtonIterations)
	e.m.newtonFails.Add(d.NewtonFailures)
	return st, passes, err
}

// beginAnalysisTelemetry opens the run-level latency scope: the first
// analysis of a session also records its queue wait (the NewSession →
// first-run gap, the daemon-workload admission metric).
func (e *Engine) beginAnalysisTelemetry() time.Time {
	t0 := time.Now()
	if !e.queueWaitDone {
		e.queueWaitDone = true
		if !e.created.IsZero() {
			e.m.queueWait.With(e.modeLabel()).Observe(t0.Sub(e.created).Seconds())
		}
	}
	return t0
}

// endAnalysisTelemetry records the run's wall clock into the labeled
// analysis-latency family and counts the run.
func (e *Engine) endAnalysisTelemetry(t0 time.Time) {
	mode, corner, rev := e.sessionLabels()
	e.m.analysisDur.With(mode, corner, rev).Observe(time.Since(t0).Seconds())
	e.m.analyses.With(mode, corner).Inc()
}

// fillWork copies the finished analysis's work counters into res.
// Called before any attribution rebuild: the rebuild re-evaluates
// reported arcs through the same calculator scope, and those
// cache-warm replays must not count as analysis work.
func (e *Engine) fillWork(res *Result) {
	res.ArcEvaluations, res.Simulations = e.Calc.Stats()
	res.CacheHits = e.calcCounters().CacheHits
	if e.t0 != nil {
		res.Tier0Hits = e.t0.hits.Load()
		res.Tier0Fallbacks = e.t0.fallbacks.Load()
		res.Tier0FlipGuards = e.t0.flipGuards.Load()
	}
	res.Tier0Rerun = e.tier0Rerun
}

// emitAnalysisEvent writes one structured event-log record for a
// completed analysis (or seeded re-analysis; extra carries the ECO seed
// stats then). No-op without Options.Events.
func (e *Engine) emitAnalysisEvent(name string, res *Result, extra map[string]any) {
	if e.opts.Events == nil {
		return
	}
	var converged, recalc int64
	for _, ps := range res.PassStats {
		converged += ps.ConvergedSkips
		recalc += ps.RecalculatedWires
	}
	fields := map[string]any{
		"mode":            e.opts.Mode.String(),
		"corner":          e.opts.Corner,
		"revision":        e.rev,
		"passes":          res.Passes,
		"longest_ns":      res.LongestPath * 1e9,
		"arc_evaluations": res.ArcEvaluations,
		"simulations":     res.Simulations,
		"recalc_wires":    recalc,
		"converged_skips": converged,
		"tier0_rerun":     res.Tier0Rerun,
		"runtime_ms":      float64(res.Runtime) / 1e6,
	}
	for k, v := range extra {
		fields[k] = v
	}
	e.opts.Events.Emit(name, fields)
}

// newFullPass hands out a reset dirty set from the session pool: with
// nothing to carry (orig nil), a sweep over it recomputes every line.
// The dirty/changed arrays are cleared here, so the set's other
// constructors see the same zero state a fresh allocation would give.
func (e *Engine) newFullPass() *dirtySet {
	n := len(e.C.Nets)
	if l := len(e.dirtyPool); l > 0 {
		ds := e.dirtyPool[l-1]
		e.dirtyPool[l-1] = nil
		e.dirtyPool = e.dirtyPool[:l-1]
		for i := range ds.dirty {
			ds.dirty[i].Store(false)
		}
		clear(ds.changed)
		ds.orig = nil
		ds.pass1, ds.esperance = false, false
		ds.expansions.Store(0)
		return ds
	}
	return &dirtySet{
		changed: make([]bool, n),
		dirty:   make([]atomic.Bool, n),
	}
}

// putDirtySet returns a dirty set to the pool once nothing reads its
// changed mask anymore (the next pass has consumed it).
func (e *Engine) putDirtySet(ds *dirtySet) {
	if ds != nil && len(ds.changed) == len(e.C.Nets) {
		ds.orig = nil
		e.dirtyPool = append(e.dirtyPool, ds)
	}
}

func snapshotQuiet(st []netState) [][2]float64 {
	out := make([][2]float64, len(st))
	for i := range st {
		out[i] = st[i].quiet
	}
	return out
}

// longest returns the worst endpoint arrival and its endpoint index.
func (e *Engine) longest(st []netState) (float64, int) {
	worst := math.Inf(-1)
	worstIdx := -1
	for i, ep := range e.endpoints {
		s := &st[ep.net-1]
		for d := 0; d < 2; d++ {
			if !s.calculated || math.IsInf(s.arrival[d], -1) {
				continue
			}
			if a := s.arrival[d] + ep.extra; a > worst {
				worst = a
				worstIdx = i
			}
		}
	}
	return worst, worstIdx
}

// finish populates the result from the final pass state.
func (e *Engine) finish(res *Result, st []netState) {
	delay, epIdx := e.longest(st)
	res.LongestPath = delay
	if epIdx < 0 {
		return
	}
	ep := e.endpoints[epIdx]
	res.Endpoint = e.endpointName(ep)
	// Pick the worse direction at the endpoint.
	s := &st[ep.net-1]
	d := dirRise
	if s.arrival[dirFall] > s.arrival[dirRise] {
		d = dirFall
	}
	chain := e.predWalk(st, ep.net, d)
	res.Path = e.pathSteps(st, chain)
	// Wire delays consumed entering each cell, endpoint first (the lowest
	// pin fed by the predecessor net, matching the fanout append order).
	res.WireDelayOnLongestPath = ep.extra
	for i := len(chain) - 1; i >= 0; i-- {
		p := st[chain[i].net-1].pred[chain[i].dir]
		if !p.valid {
			continue
		}
		for pin, in := range e.C.Cell(p.cell).In {
			if in == p.fromNet {
				res.WireDelayOnLongestPath += e.sink.At(p.cell, pin)
				break
			}
		}
	}
}

// endpointName names an endpoint: its net, and either "DFF/D" with the
// capturing flip-flop or "PO".
func (e *Engine) endpointName(ep endpointRef) Endpoint {
	n := Endpoint{Net: e.C.Net(ep.net).Name, Kind: "PO"}
	if ep.cell != netlist.NoCell {
		n.Kind = "DFF/D"
		n.Cell = e.C.Cell(ep.cell).Name
	}
	return n
}

// pathHop is one (net, direction) of a predecessor walk.
type pathHop struct {
	net netlist.NetID
	dir int
}

// predWalk follows the worst-arc predecessors from (net, dir) back to
// its launch point and returns the hops in launch → capture order.
func (e *Engine) predWalk(st []netState, net netlist.NetID, dir int) []pathHop {
	var chain []pathHop
	for steps := 0; steps < len(e.C.Nets)+2; steps++ {
		chain = append(chain, pathHop{net, dir})
		p := st[net-1].pred[dir]
		if !p.valid {
			break
		}
		net, dir = p.fromNet, p.fromDir
	}
	slices.Reverse(chain)
	return chain
}

// pathSteps renders a predecessor walk as the reported path.
func (e *Engine) pathSteps(st []netState, chain []pathHop) []PathStep {
	path := make([]PathStep, len(chain))
	for i, h := range chain {
		s := &st[h.net-1]
		path[i] = PathStep{Net: e.C.Net(h.net).Name, Dir: dirOf(h.dir), Arrival: s.arrival[h.dir]}
		if p := s.pred[h.dir]; p.valid {
			path[i].Cell = e.C.Cell(p.cell).Name
		}
	}
	return path
}

// criticalNets flags nets whose esperance reaches within the margin of
// the longest delay (the Benkoski-style filtering, §5.2).
func (e *Engine) criticalNets(st []netState, longest float64) []bool {
	// esperance(net, dir) = arrival + remaining downstream delay; a net
	// is critical when max over dirs is close to the longest path.
	n := len(e.C.Nets)
	remaining := make([][2]float64, n)
	for i := range remaining {
		remaining[i] = [2]float64{math.Inf(-1), math.Inf(-1)}
	}
	for _, ep := range e.endpoints {
		for d := 0; d < 2; d++ {
			if ep.extra > remaining[ep.net-1][d] {
				remaining[ep.net-1][d] = ep.extra
			}
		}
	}
	// Reverse topological sweep.
	for i := len(e.order) - 1; i >= 0; i-- {
		cell := e.C.Cell(e.order[i])
		out := cell.Out
		for _, in := range cell.In {
			for dIn := 0; dIn < 2; dIn++ {
				dOut := 1 - dIn // inverting library
				if math.IsInf(remaining[out-1][dOut], -1) {
					continue
				}
				arcDelay := st[out-1].arrival[dOut] - st[in-1].arrival[dIn]
				if arcDelay < 0 || math.IsNaN(arcDelay) {
					arcDelay = 0
				}
				cand := remaining[out-1][dOut] + arcDelay
				if cand > remaining[in-1][dIn] {
					remaining[in-1][dIn] = cand
				}
			}
		}
	}
	crit := make([]bool, n)
	thresh := longest * (1 - esperanceMargin)
	for i := range crit {
		for d := 0; d < 2; d++ {
			if math.IsInf(st[i].arrival[d], -1) || math.IsInf(remaining[i][d], -1) {
				continue
			}
			if st[i].arrival[d]+remaining[i][d] >= thresh {
				crit[i] = true
			}
		}
	}
	return crit
}
