// Package xtalksta is a crosstalk-aware static timing analyzer for
// synchronous CMOS circuits — a from-scratch reproduction of
// M. Ringe, T. Lindenkreuz, E. Barke, "Static Timing Analysis Taking
// Crosstalk into Account", DATE 2000.
//
// The library computes an upper bound on the longest path delay of a
// gate-level sequential circuit while modeling the delay impact of
// capacitive coupling between adjacent wires. Five analyses are
// provided (the paper's Tables 1–3 rows): ignoring coupling (BestCase),
// the classical grounded-with-doubled-value treatment (StaticDoubled),
// permanent active coupling with the paper's capacitive-divider model
// (WorstCase), and the paper's two new algorithms (OneStep, Iterative)
// that exploit per-line quiescent times to decide which neighbors can
// actually switch opposite during a victim transition.
//
// Gate delays are computed at transistor level: table-based MOSFET
// models solved per timing arc with Newton iteration, as in the paper's
// §3. The full supporting stack — `.bench` netlists, synthetic
// ISCAS89-class circuit generation, placement/routing/extraction, an
// MNA transient simulator for golden validation — lives in internal
// packages and is orchestrated through this facade.
//
// Quick start:
//
//	d, err := xtalksta.GeneratePreset(xtalksta.S35932, 0.05, xtalksta.Defaults())
//	res, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
//	fmt.Println(res.LongestPath, res.Endpoint.Net)
package xtalksta

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/incremental"
	"xtalksta/internal/layout"
	"xtalksta/internal/liberty"
	"xtalksta/internal/netlist"
	"xtalksta/internal/noise"
	"xtalksta/internal/obs"
	"xtalksta/internal/opt"
	"xtalksta/internal/pathsim"
	"xtalksta/internal/report"
	"xtalksta/internal/spef"
)

// Mode selects one of the five analyses.
type Mode = core.Mode

// The analysis modes, in the paper's table order.
const (
	BestCase      = core.BestCase
	StaticDoubled = core.StaticDoubled
	WorstCase     = core.WorstCase
	OneStep       = core.OneStep
	Iterative     = core.Iterative
)

// Modes lists all analyses in table order.
func Modes() []Mode { return core.Modes() }

// AnalysisOptions is re-exported from the core engine.
type AnalysisOptions = core.Options

// AnalysisResult is re-exported from the core engine.
type AnalysisResult = core.Result

// PathStep is one hop of a reported critical path.
type PathStep = core.PathStep

// PassStat is the per-pass work breakdown recorded on
// AnalysisResult.PassStats; AnalysisOptions.Events streams the same
// numbers as one "pass" record per sweep.
type PassStat = core.PassStat

// MetricsRegistry is a race-safe registry of named counters, gauges and
// histograms. Hand the same registry to AnalysisOptions.Metrics,
// layout.Options.Metrics and GoldenConfig.Metrics to aggregate the
// whole flow; write it out with its WriteJSON method.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// EventLog is a structured JSONL event sink: hand it to
// AnalysisOptions.Events and every analysis, refinement pass and ECO
// batch appends one self-describing record (revision, mode, seed
// statistics, converged-skip counts) to the underlying writer.
type EventLog = obs.EventLog

// NewEventLog returns an event log appending JSONL records to w.
func NewEventLog(w io.Writer) *EventLog { return obs.NewEventLog(w) }

// Attribution is the per-arc breakdown of the top-K endpoint paths
// (AnalysisOptions.Attribution); see core.Attribution for the
// exactness contract.
type Attribution = core.Attribution

// AttributedPath is one endpoint path of an Attribution.
type AttributedPath = core.AttributedPath

// AttributionStep is one hop of an AttributedPath.
type AttributionStep = core.AttributionStep

// AttributionAggressor is one surviving aggressor of an
// AttributionStep.
type AttributionAggressor = core.AttributionAggressor

// Tracer records timed spans; pair it with a TraceSink such as
// ChromeTrace to export a chrome://tracing-compatible profile.
type Tracer = obs.Tracer

// TraceSink consumes trace events from a Tracer.
type TraceSink = obs.Sink

// ChromeTrace is a TraceSink buffering events for Chrome trace_event
// JSON export (open the file in chrome://tracing or Perfetto).
type ChromeTrace = obs.ChromeTrace

// NewTracer returns a tracer feeding the sink.
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// GoldenConfig tunes the golden (transistor-level, aggressor-aligned)
// validation of a path.
type GoldenConfig = pathsim.Config

// GoldenOutcome is the golden validation result.
type GoldenOutcome = pathsim.Outcome

// Table is the paper-style result table.
type Table = report.Table

// Preset names one of the paper's benchmark circuits.
type Preset = circuitgen.Preset

// The three ISCAS89 circuits of the paper's evaluation.
const (
	S35932 = circuitgen.S35932Like
	S38417 = circuitgen.S38417Like
	S38584 = circuitgen.S38584Like
)

// BuildOptions configures design construction.
type BuildOptions struct {
	// Process parameters; zero value selects the 0.5 µm set used by the
	// paper.
	Process device.Process
	// Layout tunes placement and routing.
	Layout layout.Options
	// Calc tunes the arc delay calculator.
	Calc delaycalc.Options
	// POCap is the primary-output pad load (default 30 fF).
	POCap float64
}

// Defaults returns the standard 0.5 µm build options.
func Defaults() BuildOptions {
	return BuildOptions{Process: device.Generic05um(), POCap: 30e-15}
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.Process.VDD == 0 {
		o.Process = device.Generic05um()
	}
	if o.POCap == 0 {
		o.POCap = 30e-15
	}
	return o
}

// Design is a lowered, placed, routed and extracted circuit bundled
// with its delay calculator — everything an analysis needs.
//
// A Design is safe for concurrent use: any number of goroutines may
// call Analyze, Reanalyze, Report and the corner/LUT variants while
// others call Edit. Analyses run as independent sessions over an
// immutable compiled snapshot (core.Compiled) cached on the Design;
// Edit replaces the circuit copy-on-write and advances the revision, so
// the next analysis builds the new revision's snapshot (derived from
// the previous one where the edits allow) while in-flight analyses
// finish against the revision they started on. The sharded
// characterization cache is shared by all concurrent sessions. Do not
// read the exported Circuit field directly while another goroutine may
// Edit; use the accessor methods.
type Design struct {
	Circuit *netlist.Circuit
	Layout  *layout.Layout
	Proc    device.Process
	Sizing  ccc.Sizing
	Lib     *device.Library
	Calc    *delaycalc.Calculator
	opts    BuildOptions
	// mu guards Circuit, rev, ecoLog, snap and corners. Analyses
	// take it only long enough to resolve options against the current
	// revision and fetch/build the snapshot; the runs themselves hold no
	// lock.
	mu sync.RWMutex
	// snap is the cached compiled snapshot under the typical-corner
	// calculator (nil until first use; rebuilt when the compile key
	// changes). Edit leaves it in place as the parent the next
	// revision's snapshot derives from (see deriveLocked).
	snap *core.Compiled
	// corners memoizes per-corner device libraries, coupling models and
	// calculators (circuit-independent, so they survive Edit) plus the
	// per-corner snapshot (invalidated with the main one). Corner
	// snapshots cannot share the main one: the per-net summaries bake in
	// corner-dependent pin capacitances.
	corners map[Corner]*cornerState
	// ECO state: rev counts applied edit batches and ecoLog records
	// each revision's dirty seeds so Reanalyze can union the seeds
	// between any stored revision and the current one. The edits
	// themselves, cell sizes and input slews included, live in Circuit.
	rev    uint64
	ecoLog []ecoRecord
	// Session and snapshot bookkeeping, mirrored to the obs names
	// MSnapshotBuilds / MSnapshotReuses / MConcurrentSessionsPeak when
	// an analysis carries a metrics registry.
	sessions     atomic.Int64
	sessionsPeak atomic.Int64
	snapBuilds   atomic.Int64
	snapReuses   atomic.Int64
}

// cornerState is the memoized per-corner evaluation stack.
type cornerState struct {
	lib   *device.Library
	model coupling.Model
	calc  *delaycalc.Calculator
	snap  *core.Compiled // guarded by Design.mu
}

// ecoRecord is one applied edit batch: the revision it produced and the
// nets whose electrical parameters it changed.
type ecoRecord struct {
	rev   uint64
	seeds []netlist.NetID
}

// seedsBetween unions the dirty seeds of the edit batches that produced
// the revisions in (after, through], as a mask by NetID−1. ecoLog is
// append-only and ascends by revision, so the walk starts at its end.
// Callers hold d.mu.
func (d *Design) seedsBetween(after, through uint64) []bool {
	seed := make([]bool, len(d.Circuit.Nets))
	for i := len(d.ecoLog) - 1; i >= 0 && d.ecoLog[i].rev > after; i-- {
		if d.ecoLog[i].rev <= through {
			for _, id := range d.ecoLog[i].seeds {
				seed[id-1] = true
			}
		}
	}
	return seed
}

// FromCircuit lowers the circuit to the transistor-level primitive
// library, places and routes it, extracts parasitics, and prepares the
// delay calculator.
func FromCircuit(c *netlist.Circuit, opts BuildOptions) (*Design, error) {
	opts = opts.withDefaults()
	if err := netlist.Lower(c); err != nil {
		return nil, fmt.Errorf("xtalksta: lowering: %w", err)
	}
	p := opts.Process
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, opts.Layout)
	if err != nil {
		return nil, fmt.Errorf("xtalksta: layout: %w", err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), opts.POCap); err != nil {
		return nil, fmt.Errorf("xtalksta: extraction: %w", err)
	}
	lib := device.NewLibrary(p, device.DefaultGridN)
	model, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		return nil, err
	}
	return &Design{
		Circuit: c,
		Layout:  l,
		Proc:    p,
		Sizing:  siz,
		Lib:     lib,
		Calc:    delaycalc.New(lib, siz, model, opts.Calc),
		opts:    opts,
	}, nil
}

// FromExtracted wraps a circuit that already carries parasitics (for
// example hand-annotated coupling scenarios) without placing or routing
// it. The circuit must already be lowered to the primitive library.
func FromExtracted(c *netlist.Circuit, opts BuildOptions) (*Design, error) {
	opts = opts.withDefaults()
	p := opts.Process
	siz := ccc.DefaultSizing(p)
	lib := device.NewLibrary(p, device.DefaultGridN)
	model, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		return nil, err
	}
	return &Design{
		Circuit: c,
		Proc:    p,
		Sizing:  siz,
		Lib:     lib,
		Calc:    delaycalc.New(lib, siz, model, opts.Calc),
		opts:    opts,
	}, nil
}

// FromBench parses an ISCAS89 `.bench` netlist and builds the design.
func FromBench(name string, r io.Reader, opts BuildOptions) (*Design, error) {
	c, err := netlist.ParseBench(name, r)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c, opts)
}

// FromBenchAndSPEF parses a `.bench` netlist, lowers it, and annotates
// parasitics from a SPEF-dialect file (see internal/spef) instead of
// placing and routing — the hand-off flow a downstream user of a real
// extractor would use.
//
// Note the file must describe the LOWERED netlist (the names `benchgen
// -spef` writes), since lowering introduces internal nets.
func FromBenchAndSPEF(name string, bench, parasitics io.Reader, opts BuildOptions) (*Design, error) {
	c, err := netlist.ParseBench(name, bench)
	if err != nil {
		return nil, err
	}
	if err := netlist.Lower(c); err != nil {
		return nil, fmt.Errorf("xtalksta: lowering: %w", err)
	}
	if err := spef.Read(parasitics, c); err != nil {
		return nil, err
	}
	return FromExtracted(c, opts)
}

// WriteSPEF emits the design's extracted parasitics in the SPEF
// dialect readable by FromBenchAndSPEF.
func (d *Design) WriteSPEF(w io.Writer) error {
	return spef.Write(w, d.circuit())
}

// circuit returns the current revision of the circuit under the read
// lock (Edit replaces the pointer copy-on-write, so the returned
// circuit is a stable read-only view).
func (d *Design) circuit() *netlist.Circuit {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Circuit
}

// GeneratePreset builds one of the paper's benchmark circuits at the
// given size scale (1.0 = the paper's cell counts).
func GeneratePreset(preset Preset, scale float64, opts BuildOptions) (*Design, error) {
	c, err := circuitgen.GeneratePreset(preset, scale)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c, opts)
}

// Generate builds a custom synthetic circuit.
func Generate(params circuitgen.Params, opts BuildOptions) (*Design, error) {
	c, err := circuitgen.Generate(params)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c, opts)
}

// defaultPOCap resolves the design-level POCap default into opts.
func (d *Design) defaultPOCap(opts *AnalysisOptions) {
	if opts.POCap == 0 {
		opts.POCap = d.opts.POCap
	}
}

// compiledWith resolves opts against the current revision and returns
// the compiled snapshot for it from *slot (a field guarded by d.mu:
// &d.snap or a corner's), building and caching one when the slot is
// empty, holds an older revision or its compile key no longer matches.
// The returned revision is the one the snapshot was built from, read in
// the same critical section — the caller's consistent view of the
// design.
func (d *Design) compiledWith(calc delaycalc.Evaluator, slot **core.Compiled, opts *AnalysisOptions) (*core.Compiled, uint64, error) {
	d.defaultPOCap(opts)
	d.mu.RLock()
	if cd := *slot; cd != nil && cd.Revision() == d.rev && cd.Matches(*opts) {
		rev := d.rev
		d.mu.RUnlock()
		d.snapReuses.Add(1)
		opts.Metrics.Counter(obs.MSnapshotReuses).Inc()
		return cd, rev, nil
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	// An Edit may have slipped in between the locks: re-check so
	// snapshot and revision agree.
	if cd := *slot; cd != nil && cd.Revision() == d.rev && cd.Matches(*opts) {
		d.snapReuses.Add(1)
		opts.Metrics.Counter(obs.MSnapshotReuses).Inc()
		return cd, d.rev, nil
	}
	var cd *core.Compiled
	var err error
	if slot == &d.snap {
		cd, err = d.deriveLocked(*slot, *opts)
	}
	if cd == nil && err == nil {
		cd, err = core.Compile(d.Circuit, calc, *opts)
	}
	if err != nil {
		return nil, 0, err
	}
	cd.SetRevision(d.rev)
	*slot = cd
	d.snapBuilds.Add(1)
	opts.Metrics.Counter(obs.MSnapshotBuilds).Inc()
	return cd, d.rev, nil
}

// deriveLocked derives the current revision's snapshot from parent, an
// older revision's typical-corner snapshot, seeded with every net the
// edit batches since parent's revision changed (see
// core.Compiled.Derive). It returns nil when there is no parent or the
// edits do not explain the difference in compile keys. Callers hold
// d.mu.
func (d *Design) deriveLocked(parent *core.Compiled, opts AnalysisOptions) (*core.Compiled, error) {
	if parent == nil || parent.Revision() >= d.rev {
		return nil, nil
	}
	return parent.Derive(d.Circuit, opts, d.seedsBetween(parent.Revision(), d.rev))
}

// compiled is compiledWith for the typical-corner snapshot.
func (d *Design) compiled(opts *AnalysisOptions) (*core.Compiled, uint64, error) {
	return d.compiledWith(d.Calc, &d.snap, opts)
}

// beginSession tracks the number of concurrently running analysis
// sessions and its high-water mark; the returned func ends the session.
func (d *Design) beginSession(reg *MetricsRegistry) func() {
	n := d.sessions.Add(1)
	for {
		peak := d.sessionsPeak.Load()
		if n <= peak || d.sessionsPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	reg.Gauge(obs.MConcurrentSessionsPeak).Set(float64(d.sessionsPeak.Load()))
	return func() { d.sessions.Add(-1) }
}

// SnapshotStats reports how many compiled snapshots the design has
// built and how many analyses reused a cached one (corner snapshots
// included).
func (d *Design) SnapshotStats() (builds, reuses int64) {
	return d.snapBuilds.Load(), d.snapReuses.Load()
}

// SessionInfo is a point-in-time view of the design's analysis-session
// and snapshot bookkeeping, for the introspection plane's
// /debug/obs/sessions endpoint (and any other live dashboard).
type SessionInfo struct {
	// Revision is the current design revision (number of applied edit
	// batches).
	Revision uint64 `json:"revision"`
	// ActiveSessions is the number of analyses running right now;
	// PeakSessions is the high-water mark since construction.
	ActiveSessions int64 `json:"active_sessions"`
	PeakSessions   int64 `json:"peak_sessions"`
	// SnapshotBuilds / SnapshotReuses mirror SnapshotStats.
	SnapshotBuilds int64 `json:"snapshot_builds"`
	SnapshotReuses int64 `json:"snapshot_reuses"`
	// CompiledKeys lists the compile keys of the snapshots currently
	// cached (typical corner first, then per-corner), each tagged with
	// the revision it was compiled at.
	CompiledKeys []string `json:"compiled_keys,omitempty"`
}

// Sessions returns the live session/snapshot bookkeeping. Safe to call
// concurrently with analyses and edits; the counters are atomics and
// the snapshot keys are read under the design lock.
func (d *Design) Sessions() SessionInfo {
	info := SessionInfo{
		ActiveSessions: d.sessions.Load(),
		PeakSessions:   d.sessionsPeak.Load(),
		SnapshotBuilds: d.snapBuilds.Load(),
		SnapshotReuses: d.snapReuses.Load(),
	}
	d.mu.RLock()
	info.Revision = d.rev
	var cornerKeys []string
	for corner, cs := range d.corners {
		if cs.snap != nil {
			cornerKeys = append(cornerKeys, string(corner)+": "+cs.snap.KeyString())
		}
	}
	if d.snap != nil {
		info.CompiledKeys = append(info.CompiledKeys, "typical: "+d.snap.KeyString())
	}
	d.mu.RUnlock()
	sort.Strings(cornerKeys)
	info.CompiledKeys = append(info.CompiledKeys, cornerKeys...)
	return info
}

// Analyze runs one analysis mode.
func (d *Design) Analyze(opts AnalysisOptions) (*AnalysisResult, error) {
	cd, rev, err := d.compiled(&opts)
	if err != nil {
		return nil, err
	}
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if res.Replay != nil {
		res.Replay.SetRevision(rev)
	}
	return res, nil
}

// AnalyzeAll runs all five analyses and returns them in table order.
// The characterization cache is cleared before each mode so the
// reported runtimes are standalone, as in the paper's tables.
func (d *Design) AnalyzeAll() ([]*AnalysisResult, error) {
	return d.AnalyzeAllOpts(AnalysisOptions{})
}

// AnalyzeAllOpts is AnalyzeAll with shared per-mode options: the
// Mode field is overridden per run, everything else (Workers, Metrics,
// Trace, Events, ...) is passed through. The characterization cache is
// cleared before each mode, so every mode's runtime and work counters
// include its own characterization cost.
func (d *Design) AnalyzeAllOpts(base AnalysisOptions) ([]*AnalysisResult, error) {
	var out []*AnalysisResult
	for _, m := range Modes() {
		d.Calc.ClearCache()
		opts := base
		opts.Mode = m
		res, err := d.Analyze(opts)
		if err != nil {
			return nil, fmt.Errorf("xtalksta: %s: %w", m, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// TimingReport is the per-endpoint slack view of one analysis.
type TimingReport = core.TimingReport

// Report runs an analysis and returns per-endpoint setup slacks against
// the given clock period (classic report_timing).
func (d *Design) Report(opts AnalysisOptions, clockPeriod float64) (*TimingReport, error) {
	cd, _, err := d.compiled(&opts)
	if err != nil {
		return nil, err
	}
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		return nil, err
	}
	return eng.Report(clockPeriod)
}

// LUTLibrary is a precharacterized NLDM-style timing library.
type LUTLibrary = liberty.Library

// LUTConfig drives precharacterization.
type LUTConfig = liberty.Config

// Precharacterize builds a lookup-table timing library from the
// design's circuit-level calculator: every primitive arc is simulated
// over a grid of slews, loads and coupling ratios once, after which
// AnalyzeLUT runs the STA from interpolation alone.
func (d *Design) Precharacterize(cfg LUTConfig) (*LUTLibrary, error) {
	return liberty.Characterize(d.Circuit.Name, d.Calc, cfg)
}

// AnalyzeLUT runs an analysis using the precharacterized library, with
// the circuit-level calculator as fallback for arcs the LUT does not
// cover (clock buffers, π-model wires).
func (d *Design) AnalyzeLUT(lut *LUTLibrary, opts AnalysisOptions) (*AnalysisResult, error) {
	// LUT results cannot seed Reanalyze (a seeded run would replay
	// against the exact calculator, not the interpolated library).
	opts.DisableReplay = true
	// The LUT chain reports the same process and sizing as d.Calc, so
	// the typical-corner snapshot is shared with the exact analyses.
	cd, _, err := d.compiled(&opts)
	if err != nil {
		return nil, err
	}
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, &liberty.Fallback{Primary: lut, Secondary: d.Calc}, opts)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// ExportSDF writes a Standard Delay Format annotation with per-arc
// (best:best:worst-coupled) delay triples.
func (d *Design) ExportSDF(w io.Writer, design string) error {
	opts := AnalysisOptions{Mode: BestCase, POCap: d.opts.POCap, DisableReplay: true}
	cd, _, err := d.compiled(&opts)
	if err != nil {
		return err
	}
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		return err
	}
	return eng.ExportSDF(w, design)
}

// HoldReport is the min-delay (hold) view of one analysis.
type HoldReport = core.HoldReport

// ReportHold computes earliest arrivals and checks them against the
// flip-flop hold requirement.
func (d *Design) ReportHold(opts AnalysisOptions, holdTime float64) (*HoldReport, error) {
	cd, _, err := d.compiled(&opts)
	if err != nil {
		return nil, err
	}
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		return nil, err
	}
	return eng.ReportHold(holdTime)
}

// Corner names a process corner (SS/TT/FF).
type Corner = device.Corner

// CornerResult pairs a corner with its analysis.
type CornerResult struct {
	Corner Corner
	Result *AnalysisResult
}

// cornerFor returns the memoized evaluation stack of a process corner,
// building the device library, coupling model and calculator on first
// use. The stack is circuit-independent, so it survives Edit — repeated
// corner sweeps keep their warm characterization caches; only the
// per-corner compiled snapshot is invalidated with the revision.
func (d *Design) cornerFor(corner Corner) (*cornerState, error) {
	d.mu.RLock()
	cs := d.corners[corner]
	d.mu.RUnlock()
	if cs != nil {
		return cs, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cs := d.corners[corner]; cs != nil {
		return cs, nil
	}
	p := d.Proc.AtCorner(corner)
	lib := device.NewLibrary(p, device.DefaultGridN)
	model, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		return nil, err
	}
	cs = &cornerState{
		lib:   lib,
		model: model,
		calc:  delaycalc.New(lib, d.Sizing, model, d.opts.Calc),
	}
	if d.corners == nil {
		d.corners = make(map[Corner]*cornerState)
	}
	d.corners[corner] = cs
	return cs, nil
}

// analyzeCorner runs one session at one corner over that corner's
// compiled snapshot.
func (d *Design) analyzeCorner(corner Corner, opts AnalysisOptions) (*AnalysisResult, error) {
	cs, err := d.cornerFor(corner)
	if err != nil {
		return nil, err
	}
	// Label the session's telemetry with the corner it runs at.
	opts.Corner = string(corner)
	cd, _, err := d.compiledWith(cs.calc, &cs.snap, &opts)
	if err != nil {
		return nil, err
	}
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, cs.calc, opts)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// AnalyzeCorner runs one analysis at a single process corner over that
// corner's memoized evaluation stack (device library, coupling model,
// calculator and compiled snapshot) — the single-query shape the
// timing server's per-(mode, corner) requests need, without paying for
// the full three-corner sweep. Corner results carry no replay state
// (they evaluate under a corner-specific calculator, so they cannot
// seed a typical-corner Reanalyze).
func (d *Design) AnalyzeCorner(corner Corner, opts AnalysisOptions) (*AnalysisResult, error) {
	opts.DisableReplay = true
	return d.analyzeCorner(corner, opts)
}

// AnalyzeCorners runs the analysis at the slow, typical and fast
// process corners (device parameters varied; the extracted interconnect
// is kept, as corner extraction is a separate axis). The per-corner
// device libraries, coupling models and delay calculators are memoized
// on the Design, so repeated sweeps skip the rebuild and reuse each
// corner's warm characterization cache.
func (d *Design) AnalyzeCorners(opts AnalysisOptions) ([]CornerResult, error) {
	// Corner results use corner-specific calculators; a seeded replay
	// against the typical calculator would be wrong, so capture is off.
	opts.DisableReplay = true
	var out []CornerResult
	for _, corner := range device.Corners() {
		res, err := d.analyzeCorner(corner, opts)
		if err != nil {
			return nil, fmt.Errorf("xtalksta: corner %s: %w", corner, err)
		}
		out = append(out, CornerResult{Corner: corner, Result: res})
	}
	return out, nil
}

// SizingResult reports a timing-driven gate-sizing run.
type SizingResult = opt.Result

// SizingConfig tunes the optimizer.
type SizingConfig = opt.Config

// FixTiming upsizes gates on critical paths until the clock period is
// met under the given analysis mode (or limits are reached) — a small
// timing-driven optimization loop on top of the crosstalk-aware
// analyses. It starts from the current revision, resize edits included,
// and sizes copies of its circuit: the design itself is not edited.
func (d *Design) FixTiming(opts AnalysisOptions, clockPeriod float64, cfg SizingConfig) (*SizingResult, error) {
	// The optimizer's inner analyses never seed a Reanalyze; skip the
	// per-pass state capture.
	opts.DisableReplay = true
	d.defaultPOCap(&opts)
	return opt.FixTiming(d.circuit(), d.Calc, opts, clockPeriod, cfg)
}

// NoiseReport is the functional-crosstalk (glitch) view of the design.
type NoiseReport = noise.Report

// AnalyzeNoise estimates worst-case crosstalk glitches on every driven
// net (functional noise, the companion of the delay analysis).
func (d *Design) AnalyzeNoise() (*NoiseReport, error) {
	return noise.Analyze(d.circuit(), d.Proc, d.Sizing, d.Lib, noise.Options{})
}

// GoldenPath re-simulates a critical path at transistor level with
// coupled aggressors and alignment optimization (the paper's SPICE
// validation).
func (d *Design) GoldenPath(path []PathStep, cfg GoldenConfig) (*GoldenOutcome, error) {
	return pathsim.Simulate(d.circuit(), d.Lib, d.Sizing, path, cfg)
}

// PaperTable runs the full table experiment: all five analyses plus,
// when withGolden is set, the golden simulation of the iterative
// analysis's longest path.
func (d *Design) PaperTable(title string, withGolden bool) (*Table, error) {
	return d.PaperTableOpts(title, withGolden, AnalysisOptions{})
}

// PaperTableOpts is PaperTable with shared per-mode analysis options
// (Mode is overridden per run); the golden simulation reuses the
// options' Metrics and Trace.
func (d *Design) PaperTableOpts(title string, withGolden bool, base AnalysisOptions) (*Table, error) {
	results, err := d.AnalyzeAllOpts(base)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title}
	var iterRes *AnalysisResult
	for _, r := range results {
		t.Rows = append(t.Rows, report.Row{
			Method:      r.Mode.String(),
			DelayNs:     r.LongestPath * 1e9,
			Runtime:     r.Runtime,
			Passes:      r.Passes,
			Evaluations: r.ArcEvaluations,
			Tier0Evals:  r.Tier0Hits,
			Simulations: r.Simulations,
		})
		if r.Mode == Iterative {
			iterRes = r
		}
	}
	if iterRes != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"wire (Elmore) delay on longest path: %.3f ns vs coupling impact (worst-best): %.3f ns",
			iterRes.WireDelayOnLongestPath*1e9,
			(results[2].LongestPath-results[0].LongestPath)*1e9))
	}
	if withGolden && iterRes != nil && len(iterRes.Path) >= 2 {
		g, err := d.GoldenPath(iterRes.Path, GoldenConfig{Metrics: base.Metrics, Trace: base.Trace})
		if err != nil {
			return nil, fmt.Errorf("xtalksta: golden validation: %w", err)
		}
		t.GoldenNs = g.Delay * 1e9
		t.GoldenQuietNs = g.QuietDelay * 1e9
	}
	return t, nil
}

// Stats returns circuit statistics for reporting.
func (d *Design) Stats() (netlist.Stats, error) {
	return d.circuit().Stats()
}

// CoupledPair names two nets joined by a coupling capacitance.
type CoupledPair struct {
	A, B string
	C    float64 // farads
}

// CoupledPairs returns up to max coupled net pairs of the current
// revision (each pair once, A before B in net-ID order), in
// deterministic net order. This is the edit-target discovery surface
// of the timing server: a router-in-the-loop client picks pairs from
// it to drive ScaleCoupling/SetCoupling what-if traffic without
// holding a reference to the circuit itself.
func (d *Design) CoupledPairs(max int) []CoupledPair {
	c := d.circuit()
	var out []CoupledPair
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			if cp.Other <= n.ID {
				continue // report each undirected pair once
			}
			out = append(out, CoupledPair{A: n.Name, B: c.Net(cp.Other).Name, C: cp.C})
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// ECO / incremental re-analysis
// ---------------------------------------------------------------------------

// Edit is one incremental design change (an ECO step): a coupling-cap
// adjustment, a gate resize, or a primary-input slew change. Build
// edits with the constructor helpers below and apply them with
// Design.Edit or Design.Reanalyze.
type Edit = incremental.Edit

// ECOStats summarizes the work a seeded re-analysis did (dirty lines
// re-evaluated) and skipped (clean lines reused from the previous run).
type ECOStats = core.ECOStats

// ReplayState is the per-pass state snapshot a full analysis attaches
// to its result; it is what makes a later Reanalyze bit-exact.
type ReplayState = core.ReplayState

// ScaleCoupling multiplies the coupling capacitance between nets a and
// b by factor.
func ScaleCoupling(a, b string, factor float64) Edit {
	return Edit{Op: incremental.OpScaleCoupling, A: a, B: b, Value: factor}
}

// SetCoupling sets the total coupling capacitance between nets a and b
// to c farads.
func SetCoupling(a, b string, c float64) Edit {
	return Edit{Op: incremental.OpSetCoupling, A: a, B: b, Value: c}
}

// AddCoupling introduces a new coupling of c farads between nets a and
// b (e.g. a reroute bringing two wires adjacent).
func AddCoupling(a, b string, c float64) Edit {
	return Edit{Op: incremental.OpAddCoupling, A: a, B: b, Value: c}
}

// RemoveCoupling deletes the coupling between nets a and b.
func RemoveCoupling(a, b string) Edit {
	return Edit{Op: incremental.OpRemoveCoupling, A: a, B: b}
}

// DecoupleNet removes every coupling touching the net (shield
// insertion).
func DecoupleNet(net string) Edit {
	return Edit{Op: incremental.OpDecoupleNet, A: net}
}

// ResizeCell sets the drive-strength multiplier of a combinational
// cell.
func ResizeCell(cell string, mult float64) Edit {
	return Edit{Op: incremental.OpResizeCell, Cell: cell, Value: mult}
}

// SetInputSlew overrides the transition time at a primary input.
func SetInputSlew(net string, slew float64) Edit {
	return Edit{Op: incremental.OpSetInputSlew, A: net, Value: slew}
}

// Revision returns the number of edit batches applied to the design so
// far. Analysis results carry the revision they were produced at, and
// Reanalyze re-runs exactly the cone dirtied between the result's
// revision and the current one.
func (d *Design) Revision() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rev
}

// Edit applies a batch of design edits atomically — either every edit
// lands and the design revision advances by one, or the circuit is left
// untouched and an error describes the first invalid edit. The edits
// affect every subsequent analysis; pair with Reanalyze to re-run
// incrementally instead of from scratch.
func (d *Design) Edit(edits ...Edit) error {
	_, err := d.applyEdits(edits, nil, nil)
	return err
}

// applyEdits applies one edit batch copy-on-write: incremental.Apply
// returns the edited copy of the circuit, which replaces d.Circuit only
// when the whole batch succeeds. In-flight analyses keep reading the
// previous revision's circuit through their compiled snapshots. The
// typical snapshot stays cached as the parent the next analysis derives
// the new revision's from; the corner snapshots are dropped.
func (d *Design) applyEdits(edits []Edit, reg *obs.Registry, tr *obs.Tracer) ([]netlist.NetID, error) {
	if len(edits) == 0 {
		return nil, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	edited, seeds, err := incremental.Apply(d.Circuit, edits, reg, tr)
	if err != nil {
		return nil, err
	}
	d.Circuit = edited
	d.rev++
	d.ecoLog = append(d.ecoLog, ecoRecord{rev: d.rev, seeds: seeds})
	for _, cs := range d.corners {
		cs.snap = nil
	}
	return seeds, nil
}

// Reanalyze applies the edit batch (may be empty if edits were already
// applied via Edit) and re-runs the analysis that produced prev,
// re-evaluating the edited nets and then only the lines whose inputs
// diverge from prev's stored passes — the fanout of a line whose timing
// moved, plus every victim coupled to such an aggressor under the same
// quiescent-time test the full analysis uses. All other lines are
// seeded from prev's stored state. The returned result is
// bit-identical to a from-scratch Analyze of the edited design.
//
// prev must come from Analyze (or a previous Reanalyze) on this
// design; results from AnalyzeLUT or AnalyzeCorners carry no replay
// state and are rejected. If the design revision already matches
// prev's and no edits are given, prev is returned unchanged.
func (d *Design) Reanalyze(prev *AnalysisResult, edits []Edit) (*AnalysisResult, error) {
	if prev == nil || prev.Replay == nil {
		return nil, fmt.Errorf("xtalksta: Reanalyze requires a result from Analyze on this design (no replay state attached)")
	}
	rs := prev.Replay
	if rs.Revision() > d.Revision() {
		return nil, fmt.Errorf("xtalksta: result revision %d is newer than design revision %d", rs.Revision(), d.Revision())
	}
	opts := rs.Options()
	if _, err := d.applyEdits(edits, opts.Metrics, opts.Trace); err != nil {
		return nil, err
	}
	// Compile (or reuse) the snapshot of the current revision; the
	// returned revision is the consistent view the seeded run replays
	// against even if other goroutines keep editing.
	cd, rev, err := d.compiled(&opts)
	if err != nil {
		return nil, err
	}
	if rs.Nets() != len(cd.C.Nets) {
		return nil, fmt.Errorf("xtalksta: design has %d nets but the result was analyzed with %d", len(cd.C.Nets), rs.Nets())
	}
	if rev == rs.Revision() {
		return prev, nil
	}
	// Union the dirty seeds of every batch applied after prev's run, up
	// to the revision the snapshot was compiled at.
	d.mu.RLock()
	seed := d.seedsBetween(rs.Revision(), rev)
	d.mu.RUnlock()
	done := d.beginSession(opts.Metrics)
	defer done()
	eng, err := core.NewSession(cd, d.Calc, opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunSeeded(rs, seed)
	if err != nil {
		return nil, err
	}
	if res.Replay != nil {
		res.Replay.SetRevision(rev)
	}
	return res, nil
}
