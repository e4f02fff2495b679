package obs

// Canonical metric names shared by the engine, the delay calculator,
// the layout/extraction pipeline, the golden path simulator and the
// CLIs. Keeping them here gives the metrics dump a single vocabulary
// (see README.md "Observability" for meanings).
const (
	// Delay-calculator work (deltas accumulated per engine run).
	MArcEvaluations = "arc_evaluations_total"
	MSimulations    = "simulations_total"
	MNewtonIters    = "newton_iterations_total"
	MNewtonFailures = "newton_convergence_failures_total"

	// Characterization-cache shard traffic (lock-striped cache).
	// Hits/contention depend on scheduling and are observability-only;
	// Simulations (above) stays deterministic via per-key single-flight.
	MDelayCacheHits       = "delaycalc_cache_hits_total"
	MDelayCacheMisses     = "delaycalc_cache_misses_total"
	MDelayCacheContention = "delaycalc_cache_contention_total"

	// Adaptive transient kernel.
	MSimSteps            = "sim_steps_total"
	MSimStepRejections   = "sim_step_rejections_total"
	MSimEarlyStops       = "sim_early_stops_total"
	MSimWindowExtensions = "xtalksta_sim_window_extensions"

	// Coupling decisions taken by the one-step/iterative classifier.
	MCouplingActive   = "coupling_active_total"
	MCouplingGrounded = "coupling_grounded_total"
	// Arc evaluations skipped because the worst-case request collapsed
	// to the already-computed best-case one (no active coupling), and
	// best-case results reused across Iterative refinement passes.
	MCouplingZeroSkips = "coupling_zero_eval_skips_total"
	MTBCSReuseHits     = "tbcs_reuse_hits_total"

	// Tiered delay evaluation (DESIGN.md §14). Hits counts evaluator
	// calls the tier-0 dispatcher avoided (dominance skips, elided
	// best-case evaluations, memo reuses); Fallbacks the candidate arcs
	// dispatched exactly because they were near-critical or
	// unboundable; FlipGuards the coupling comparisons whose t_bcs
	// bracket straddled a neighbor's quiescent time and forced the
	// exact best-case evaluation. Reruns counts analyses whose tiered
	// run violated a bracket and was recomputed all-Newton.
	MTier0Hits       = "tier0_hits_total"
	MTier0Fallbacks  = "tier0_fallbacks_total"
	MTier0FlipGuards = "tier0_flip_guards_total"
	MTier0Reruns     = "tier0_reruns_total"

	// Engine sweep structure. WorkerCells counts the cells the executor
	// ran on its worker goroutines and SequentialCells those it ran
	// inline (one worker, or a rank bucket too small to fan out).
	MPasses          = "passes_total"
	MRecalcWires     = "recalculated_wires_total"
	MWorkerCells     = "worker_cells_total"
	MSequentialCells = "sequential_cells_total"
	MWorkers         = "workers" // gauge
	// Delta-convergent Iterative refinement: lines carried over because
	// their inputs and neighbor quiescent times were bit-identical to
	// the previous pass.
	MPassConvergedSkips = "pass_converged_skips_total"

	// Incremental (ECO) re-analysis. DirtyLines counts driven lines
	// actually re-evaluated by a seeded run, ReusedLines the lines
	// carried over from the previous revision's stored passes, and
	// ConeExpansions the dirty-set growth beyond the initial edit seeds
	// (the fanout and coupled victims of lines whose state diverged).
	MEcoEdits          = "eco_edits_total"
	MEcoDirtyLines     = "eco_dirty_lines"
	MEcoReusedLines    = "eco_reused_lines"
	MEcoConeExpansions = "eco_cone_expansions"
	MEcoFullFallbacks  = "eco_full_fallbacks_total"

	// Compiled-snapshot lifecycle and concurrent analysis sessions.
	// Builds counts core.Compile invocations on behalf of a Design (one
	// per revision × compile key in the steady state), Reuses the
	// analyses served from an already-built snapshot, and the peak gauge
	// the high-water mark of simultaneously running sessions.
	MSnapshotBuilds         = "snapshot_builds_total"
	MSnapshotReuses         = "snapshot_reuses_total"
	MConcurrentSessionsPeak = "concurrent_sessions_peak" // gauge

	// Layout / extraction.
	MLayoutNetsRouted    = "layout_nets_routed_total"
	MLayoutCouplingPairs = "layout_coupling_pairs_total"
	MLayoutWirelength    = "layout_wirelength_mm" // gauge

	// Golden path validation.
	MGoldenSims       = "golden_simulations_total"
	MGoldenAggressors = "golden_aggressors_total"

	// Live introspection plane: latency distributions and run
	// accounting. Duration histograms record seconds on the
	// DurationBounds grid. The labeled families use only bounded label
	// sets (see DESIGN.md §12): mode is a closed enum, corner is the
	// three-letter process corner, pass is a small integer, phase is
	// clock|main, revision is the design's edit revision (bounded by
	// the ECO count of one process lifetime).
	MAnalysisDuration = "analysis_duration_seconds"  // histogram{mode,corner,revision}
	MPassDuration     = "pass_duration_seconds"      // histogram{mode,pass}
	MPhaseDuration    = "phase_duration_seconds"     // histogram{mode,phase}
	MQueueWait        = "session_queue_wait_seconds" // histogram{mode}
	MArcEvalDuration  = "arc_eval_duration_seconds"  // histogram
	MAnalyses         = "analyses_total"             // counter{mode,corner}

	// Structured event log and attribution reports.
	MEventsEmitted     = "events_emitted_total"
	MAttributionBuilds = "attribution_builds_total"

	// Introspection HTTP server, labeled by route pattern (a closed
	// set — never by raw request path).
	MObsHTTPRequests = "obs_http_requests_total" // counter{route}

	// Timing-as-a-service daemon (internal/server, cmd/xtalkstad).
	// Endpoint is the fixed route name (designs, design, analyze, edit,
	// paths — a closed set), code the HTTP status it answered with, and
	// reason the shed cause (queue_full or deadline). QueueDepth is the
	// number of requests waiting for an analysis slot right now and
	// InFlight the number holding one; CoalesceLeaders counts analyses
	// actually run on behalf of a coalesced query group, CoalesceHits
	// the identical concurrent queries that shared a leader's result,
	// and ResultCacheHits the queries answered from the per-revision
	// response cache without any session at all.
	MServerRequests        = "server_requests_total"           // counter{endpoint,code}
	MServerRequestLatency  = "server_request_duration_seconds" // histogram{endpoint}
	MServerQueueDepth      = "server_queue_depth"              // gauge
	MServerInFlight        = "server_inflight_sessions"        // gauge
	MServerShed            = "server_shed_total"               // counter{reason}
	MServerCoalesceHits    = "server_coalesce_hits_total"
	MServerCoalesceLeaders = "server_coalesce_leaders_total"
	MServerResultCacheHits = "server_result_cache_hits_total"
	MServerEditBatches     = "server_edit_batches_total"
	MServerDesignsLoaded   = "server_designs_loaded" // gauge
)

// MetricDef describes one canonical metric: its name, instrument kind,
// and label keys (nil for unlabeled instruments; gauges are never
// labeled — the registry has no labeled gauge family). AllMetrics is the
// single source of truth the name-drift test checks registries against,
// and RegisterAll uses it to pre-register the full vocabulary so a
// /metrics scrape covers every family even before it records a sample.
type MetricDef struct {
	Name   string
	Kind   string // "counter", "gauge" or "histogram"
	Labels []string
}

// AllMetrics returns the canonical metric vocabulary: every constant
// above, in declaration order. A name registered at runtime that is not
// in this list — or a listed name no registry ever touches — is
// vocabulary drift.
func AllMetrics() []MetricDef {
	c := func(name string, labels ...string) MetricDef {
		return MetricDef{Name: name, Kind: "counter", Labels: labels}
	}
	g := func(name string, labels ...string) MetricDef {
		return MetricDef{Name: name, Kind: "gauge", Labels: labels}
	}
	h := func(name string, labels ...string) MetricDef {
		return MetricDef{Name: name, Kind: "histogram", Labels: labels}
	}
	return []MetricDef{
		c(MArcEvaluations), c(MSimulations), c(MNewtonIters), c(MNewtonFailures),
		c(MDelayCacheHits), c(MDelayCacheMisses), c(MDelayCacheContention),
		c(MSimSteps), c(MSimStepRejections), c(MSimEarlyStops), c(MSimWindowExtensions),
		c(MCouplingActive), c(MCouplingGrounded),
		c(MCouplingZeroSkips), c(MTBCSReuseHits),
		c(MTier0Hits), c(MTier0Fallbacks), c(MTier0FlipGuards), c(MTier0Reruns),
		c(MPasses), c(MRecalcWires),
		c(MWorkerCells), c(MSequentialCells),
		g(MWorkers),
		c(MPassConvergedSkips),
		c(MEcoEdits), c(MEcoDirtyLines), c(MEcoReusedLines),
		c(MEcoConeExpansions), c(MEcoFullFallbacks),
		c(MSnapshotBuilds), c(MSnapshotReuses), g(MConcurrentSessionsPeak),
		c(MLayoutNetsRouted), c(MLayoutCouplingPairs), g(MLayoutWirelength),
		c(MGoldenSims), c(MGoldenAggressors),
		h(MAnalysisDuration, "mode", "corner", "revision"),
		h(MPassDuration, "mode", "pass"),
		h(MPhaseDuration, "mode", "phase"),
		h(MQueueWait, "mode"),
		h(MArcEvalDuration),
		c(MAnalyses, "mode", "corner"),
		c(MEventsEmitted), c(MAttributionBuilds),
		c(MObsHTTPRequests, "route"),
		c(MServerRequests, "endpoint", "code"),
		h(MServerRequestLatency, "endpoint"),
		g(MServerQueueDepth), g(MServerInFlight),
		c(MServerShed, "reason"),
		c(MServerCoalesceHits), c(MServerCoalesceLeaders),
		c(MServerResultCacheHits), c(MServerEditBatches),
		g(MServerDesignsLoaded),
	}
}

// RegisterAll pre-registers the full canonical vocabulary on r, so
// every family appears (at zero) in dumps and /metrics scrapes from the
// first request. Duration histograms get the DurationBounds grid;
// others the default grid. Safe to call on an already-populated
// registry (existing instruments are kept) and a no-op on nil.
func RegisterAll(r *Registry) {
	if r == nil {
		return
	}
	for _, def := range AllMetrics() {
		switch def.Kind {
		case "counter":
			if len(def.Labels) > 0 {
				r.CounterVec(def.Name, def.Labels...)
			} else {
				r.Counter(def.Name)
			}
		case "gauge":
			r.Gauge(def.Name)
		case "histogram":
			bounds := []float64(nil)
			if durationMetric(def.Name) {
				bounds = DurationBounds
			}
			if len(def.Labels) > 0 {
				r.HistogramVec(def.Name, bounds, def.Labels...)
			} else {
				r.HistogramWith(def.Name, bounds)
			}
		}
	}
}

// durationMetric reports whether a canonical metric records seconds.
func durationMetric(name string) bool {
	const suffix = "_seconds"
	return len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix
}
