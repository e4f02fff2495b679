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
//	                improving; the lowest pass is reported.
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
	// PiModel (extension beyond the paper) replaces the lumped-load +
	// Elmore wire treatment by a π-model per net: half the wire cap at
	// the driver, the wire resistance to a far node carrying the other
	// half plus the sink pins and coupling caps, with the delay
	// measured at the far (receiver) node — resistive shielding, the
	// limitation the paper's §2 explicitly concedes.
	PiModel bool
	// Workers evaluates the cells of one rank bucket concurrently when
	// > 1. Results are identical to the sequential run (the one-step
	// neighbor rule is rank-based, see levels.go).
	Workers int
	// POCap is the load of a primary-output pad (default 30 fF).
	POCap float64
	// Tier0 enables tiered delay evaluation (DESIGN.md §14): candidate
	// arcs are bracketed analytically and dispatched to the exact
	// Newton evaluator only when near-critical, dominance-unresolved or
	// coupling-ambiguous. Results are bit-identical to the all-Newton
	// run — every pruning rule is proof-carrying, evaluated arcs are
	// audited against their brackets, and a violated bracket discards
	// the run and recomputes all-Newton (Result.Tier0Rerun). Ignored
	// (stays off) on seeded re-analysis (RunSeeded; a full fallback
	// still uses it) and with evaluators that cannot bound arcs.
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
	// evaluations, Newton iterations, coupling decisions, converged
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
	// maxPasses bounds the iterative refinement.
	maxPasses = 10
	// piSlew is the transition time at a primary input whose InputSlew
	// no edit set; dffOutSlew that of every flip-flop output.
	piSlew     = 0.2e-9
	dffOutSlew = 0.15e-9
	// tier0Margin is the relative margin of the tier-0 criticality gate:
	// an arc whose bracketed arrival upper bound reaches within this
	// fraction of the analytic longest-path frontier at its rank is
	// always dispatched exactly. Policy, not correctness — exactness
	// holds for any margin (TestTier0MarginSweepParity).
	tier0Margin = 0.05
)

func (o Options) withDefaults() Options {
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
	baseCap       float64 // grounded load excluding coupling caps
	cwire         float64 // wire portion of baseCap
	rwire         float64 // wire resistance (π-model extension)
	sumCc         float64
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
	// Passes counts the BFS sweeps that ran (1 for the single-pass
	// modes).
	Passes int
	// PassStats is the per-pass work/tightness breakdown of every pass
	// that ran, in pass order. For Iterative the reported LongestPath is
	// the lowest of its LongestPath column; the last pass, which ends the
	// refinement by not improving, may be looser.
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
// (circuit, net summaries, ranks, rank buckets), while the
// Engine itself holds only per-run mutable state. Sessions over the
// same Compiled are independent and may run concurrently; a single
// Engine is not safe for concurrent Run calls.
type Engine struct {
	*Compiled
	Calc delaycalc.InfoEvaluator

	opts Options
	// tier0Margin is the session's copy of the tier0Margin constant
	// (in-package tests sweep it before Run).
	tier0Margin float64
	// Telemetry plumbing: m is never nil (unregistered instruments when
	// Options.Metrics is nil); trace may be nil (no-op safe).
	m         *engineMetrics
	trace     *obs.Tracer
	passStats []PassStat
	// work sums the analysis's pass tallies, a discarded tier-0 run's
	// included but for its tier-0 decisions (see Result.Tier0Rerun).
	work tally
	// bcs caches best-case arc results across passes, a slab over the
	// snapshot's arc index (arcSlot). Exactly one worker owns a cell
	// within a pass and passes are barrier-separated, so the slots need
	// no locking (see levels.go). The run's replay takes the slab with
	// it; the next run starts a fresh one.
	bcs []bcsEntry
	// t0 is the tiered-dispatch state when Options.Tier0 is active for
	// this analysis (see tier0.go); nil otherwise. tier0Rerun records
	// that the analysis in flight discarded a tainted tiered run.
	t0         *tier0Run
	tier0Rerun bool
	// Replay capture (eco.go): the per-pass state slices, reset per
	// analysis, harvested by takeReplay.
	replayPasses [][]netState
	// Reported-pass context, captured by runPasses: the quiescent-time
	// snapshot the reported sweep classified against (nil for first and
	// single passes) and that sweep's mode (OneStep for the Iterative
	// seed pass), for the attribution rebuild, and the sweep's 0-based
	// index, for the replay.
	finalQuietPrev [][2]float64
	finalPassMode  Mode
	finalPass      int
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
func NewEngine(c *netlist.Circuit, calc delaycalc.InfoEvaluator, opts Options) (*Engine, error) {
	cd, err := Compile(c, calc, opts)
	if err != nil {
		return nil, err
	}
	return NewSession(cd, calc, opts)
}

// piSlewFor returns the input transition time of a primary input: the
// one an ECO edit set, else the default.
func (e *Engine) piSlewFor(net netlist.NetID) float64 {
	if s := e.C.Net(net).InputSlew; s > 0 {
		return s
	}
	return piSlew
}

// Run executes the configured analysis.
func (e *Engine) Run() (*Result, error) { return e.run(nil, nil) }

// run executes a full analysis (prev == nil) or one seeded from prev
// (RunSeeded, with the seed mask), and fills the result.
func (e *Engine) run(prev *ReplayState, seed []bool) (*Result, error) {
	start := time.Now()
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
		if !e.seedableTopology() {
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
	// The run's tally holds pass work only: the attribution rebuild's
	// cache-warm replays below never count as analysis work.
	w := &e.work
	res.ArcEvaluations, res.Simulations, res.CacheHits = w.calc.Requests, w.calc.Simulations, w.calc.CacheHits
	res.Tier0Hits, res.Tier0Fallbacks, res.Tier0FlipGuards = w.tier0Hits, w.tier0Fallbacks, w.tier0FlipGuards
	res.Tier0Rerun = e.tier0Rerun
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

// analyze produces the reported pass's netState of the configured
// analysis and the number of BFS passes it took (Run, RunSeeded, Report
// and PathTo all build on it): full, or seeded from prev when eco is
// non-nil. It owns the run-level telemetry scope: the analysis span, the
// per-pass stats and the run's work tally (each pass publishes its own
// to the metrics registry). A run whose tier-0 brackets broke is
// discarded and recomputed all-Newton.
func (e *Engine) analyze(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	t0 := e.beginAnalysisTelemetry()
	defer e.endAnalysisTelemetry(t0)
	e.passStats = nil
	e.replayPasses = nil
	e.work = tally{}
	if e.bcs == nil { // an earlier run's replay took the slab
		e.bcs = make([]bcsEntry, e.arcs())
	}
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

// newFullPass allocates a pass's dirty set: with nothing to carry (orig
// nil), a sweep over it recomputes every line.
func (e *Engine) newFullPass() *dirtySet {
	n := len(e.C.Nets)
	return &dirtySet{
		changed: make([]bool, n),
		dirty:   make([]atomic.Bool, n),
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

// finish populates the result from the reported pass state.
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
