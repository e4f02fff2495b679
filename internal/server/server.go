// Package server is the timing-as-a-service layer of xtalksta: a
// long-running multi-design registry served over HTTP+JSON by the
// xtalkstad daemon. It is built directly on the concurrency substrate
// of the library facade — immutable compiled snapshots, independent
// analysis sessions, copy-on-write edits — and adds the three things a
// router-in-the-loop workload (thousands of small what-if queries per
// second against a mostly-stable design) needs on top:
//
//   - admission control: a bounded in-flight slot pool plus a bounded,
//     deadline-aware wait queue; overload sheds with 429 (queue full)
//     or 503 (deadline expired while queued) instead of collapsing.
//   - query coalescing: identical concurrent (design, revision, mode,
//     corner) queries single-flight onto one analysis session and share
//     the leader's response bytes, so a thundering herd costs one run.
//   - a per-revision response cache: a repeated query against an
//     unedited design is answered without any session at all; edits
//     advance the revision and naturally invalidate it.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/designs               load a design (preset or synthetic)
//	GET  /v1/designs               list designs + live session stats
//	GET  /v1/designs/{id}          one design: stats, coupled pairs
//	POST /v1/designs/{id}/analyze  one analysis (mode, corner, ...)
//	POST /v1/designs/{id}/edit     apply an ECO batch; optionally
//	                               reanalyze incrementally
//	GET  /v1/designs/{id}/paths    top-K path attribution (text/JSON)
//
// plus the whole introspection plane of internal/obs/httpserve
// (/metrics, /debug/pprof/*, /debug/obs/*) mounted on the same mux.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/incremental"
	"xtalksta/internal/obs"
	"xtalksta/internal/obs/httpserve"
	"xtalksta/internal/report"
)

// Config tunes a Server.
type Config struct {
	// Registry receives the server's labeled metrics and is exported on
	// /metrics; nil allocates a private one.
	Registry *obs.Registry
	// MaxInFlight bounds concurrently running requests (analyses, edits
	// and design builds all hold one slot); default 2×GOMAXPROCS via
	// NewAdmission semantics is NOT applied — default here is 4.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with 429. Default 64.
	MaxQueue int
	// QueueTimeout caps how long a request may wait for a slot before a
	// 503 (overridable per request with timeout_ms). Default 5s.
	QueueTimeout time.Duration
	// Workers is the per-analysis worker count (0/1 = sequential).
	Workers int
}

// Server is the multi-design timing service. Construct with New, mount
// Handler on any http.Server, or use Start/Shutdown for the managed
// listener the daemon and the tests share.
type Server struct {
	reg          *obs.Registry
	adm          *Admission
	flights      flightGroup
	obsSrv       *httpserve.Server
	workers      int
	queueTimeout time.Duration

	requests    *obs.CounterVec   // {endpoint, code}
	latency     *obs.HistogramVec // {endpoint}
	coalHits    *obs.Counter
	coalLeaders *obs.Counter
	cacheHits   *obs.Counter
	editBatches *obs.Counter
	designCount *obs.Gauge

	mu      sync.RWMutex
	designs map[string]*designEntry

	lis  net.Listener
	http *http.Server

	// hookLeader, when set (tests only), runs inside the coalesce
	// leader's critical section before the analysis starts — the gate
	// that makes "N concurrent identical queries → exactly 1 analysis"
	// deterministic to assert.
	hookLeader func(key string)
}

// designEntry is one registered design plus its server-side state: the
// response cache of the current revision and the last full result per
// mode, which seeds incremental reanalysis of edit batches.
type designEntry struct {
	id    string
	title string
	d     *xtalksta.Design

	mu       sync.Mutex
	cache    map[string]cachedResp                      // query key → response
	cacheRev uint64                                     // revision the cache is valid for
	lastFull map[xtalksta.Mode]*xtalksta.AnalysisResult // replay seeds for /edit
}

type cachedResp struct {
	status int
	body   []byte
	ctype  string
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	reg := cfg.Registry
	s := &Server{
		reg:          reg,
		adm:          NewAdmission(cfg.MaxInFlight, cfg.MaxQueue, reg),
		obsSrv:       httpserve.New(reg),
		workers:      cfg.Workers,
		queueTimeout: cfg.QueueTimeout,
		requests:     reg.CounterVec(obs.MServerRequests, "endpoint", "code"),
		latency:      reg.HistogramVec(obs.MServerRequestLatency, obs.DurationBounds, "endpoint"),
		coalHits:     reg.Counter(obs.MServerCoalesceHits),
		coalLeaders:  reg.Counter(obs.MServerCoalesceLeaders),
		cacheHits:    reg.Counter(obs.MServerResultCacheHits),
		editBatches:  reg.Counter(obs.MServerEditBatches),
		designCount:  reg.Gauge(obs.MServerDesignsLoaded),
		designs:      make(map[string]*designEntry),
	}
	s.obsSrv.SetSessions(func() any { return s.sessionsView() })
	return s
}

// Register adds an already-built design under id (the in-process path
// the load generator and tests use to skip the HTTP build round-trip).
func (s *Server) Register(id, title string, d *xtalksta.Design) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.designs[id]; ok {
		return fmt.Errorf("server: design %q already loaded", id)
	}
	s.designs[id] = &designEntry{id: id, title: title, d: d,
		lastFull: make(map[xtalksta.Mode]*xtalksta.AnalysisResult)}
	s.designCount.Set(float64(len(s.designs)))
	return nil
}

func (s *Server) entry(id string) *designEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.designs[id]
}

// sessionsView is the multi-design live view behind
// /debug/obs/sessions: design id → the facade's SessionInfo.
func (s *Server) sessionsView() any {
	s.mu.RLock()
	ids := make([]string, 0, len(s.designs))
	entries := make([]*designEntry, 0, len(s.designs))
	for id, e := range s.designs {
		ids = append(ids, id)
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make(map[string]xtalksta.SessionInfo, len(ids))
	for i, id := range ids {
		out[id] = entries[i].d.Sessions()
	}
	_ = sort.StringsAreSorted(ids)
	return out
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

// Handler returns the service mux: the /v1 API plus the introspection
// plane on everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/designs", s.instrument("designs", s.handleLoadDesign))
	mux.HandleFunc("GET /v1/designs", s.instrument("designs", s.handleListDesigns))
	mux.HandleFunc("GET /v1/designs/{id}", s.instrument("design", s.handleGetDesign))
	mux.HandleFunc("POST /v1/designs/{id}/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/designs/{id}/edit", s.instrument("edit", s.handleEdit))
	mux.HandleFunc("GET /v1/designs/{id}/paths", s.instrument("paths", s.handlePaths))
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "xtalkstad timing service")
		fmt.Fprintln(w, "  POST /v1/designs                 {id, preset|cells, scale, ...}")
		fmt.Fprintln(w, "  GET  /v1/designs")
		fmt.Fprintln(w, "  GET  /v1/designs/{id}?pairs=N")
		fmt.Fprintln(w, "  POST /v1/designs/{id}/analyze    {mode, corner, timeout_ms}")
		fmt.Fprintln(w, "  POST /v1/designs/{id}/edit       {edits: [...], reanalyze_mode}")
		fmt.Fprintln(w, "  GET  /v1/designs/{id}/paths?mode=&topk=&format=json")
		fmt.Fprintln(w, "  /metrics /debug/pprof/* /debug/obs/{snapshot,sessions,critpath}")
	})
	mux.Handle("/", s.obsSrv.Handler())
	return mux
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint latency histogram
// and the {endpoint, code} request counter. Endpoint names are the
// fixed route set — closed-cardinality labels per DESIGN.md §12.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: 200}
		h(sw, r)
		s.latency.With(endpoint).Observe(time.Since(t0).Seconds())
		s.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
	}
}

// writeJSON marshals v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

type errorResp struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResp{Error: fmt.Sprintf(format, args...)})
}

// shedStatus maps an admission error to its HTTP status.
func shedStatus(err error) int {
	if errors.Is(err, ErrQueueFull) {
		return http.StatusTooManyRequests // 429
	}
	return http.StatusServiceUnavailable // 503
}

// requestCtx derives the admission-wait context: the client context
// bounded by the server's queue timeout, tightened by an explicit
// per-request timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.queueTimeout
	if timeoutMs > 0 {
		if t := time.Duration(timeoutMs) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// ---------------------------------------------------------------------------
// Design registry endpoints
// ---------------------------------------------------------------------------

type loadDesignReq struct {
	ID     string  `json:"id"`
	Preset string  `json:"preset"`
	Scale  float64 `json:"scale"`
	Cells  int     `json:"cells"`
	DFFs   int     `json:"dffs"`
	Depth  int     `json:"depth"`
	Seed   int64   `json:"seed"`
}

type designInfo struct {
	ID       string               `json:"id"`
	Circuit  string               `json:"circuit"`
	Cells    int                  `json:"cells"`
	DFFs     int                  `json:"dffs"`
	Nets     int                  `json:"nets"`
	Depth    int                  `json:"logic_depth"`
	Revision uint64               `json:"revision"`
	Sessions xtalksta.SessionInfo `json:"sessions"`
}

func (s *Server) designInfo(e *designEntry) (designInfo, error) {
	st, err := e.d.Stats()
	if err != nil {
		return designInfo{}, err
	}
	return designInfo{
		ID: e.id, Circuit: e.title, Cells: st.Cells, DFFs: st.DFFs,
		Nets: st.Nets, Depth: st.LogicDepth,
		Revision: e.d.Revision(), Sessions: e.d.Sessions(),
	}, nil
}

// handleLoadDesign builds a design from a preset or synthetic spec and
// registers it. Builds are heavyweight (layout + extraction), so they
// go through admission like any analysis.
func (s *Server) handleLoadDesign(w http.ResponseWriter, r *http.Request) {
	var req loadDesignReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, "id is required")
		return
	}
	if s.entry(req.ID) != nil {
		writeErr(w, http.StatusConflict, "design %q already loaded", req.ID)
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	if err := s.adm.Acquire(ctx); err != nil {
		writeErr(w, shedStatus(err), "%v", err)
		return
	}
	defer s.adm.Release()

	bopts := xtalksta.Defaults()
	bopts.Calc.Metrics = s.reg
	bopts.Layout.Metrics = s.reg
	var (
		d     *xtalksta.Design
		title string
		err   error
	)
	switch {
	case req.Preset != "":
		scale := req.Scale
		if scale <= 0 {
			scale = 0.02
		}
		d, err = xtalksta.GeneratePreset(xtalksta.Preset(strings.ToLower(req.Preset)), scale, bopts)
		title = fmt.Sprintf("%s (scale %.2f)", req.Preset, scale)
	case req.Cells > 0:
		dffs := req.DFFs
		if dffs <= 0 {
			dffs = req.Cells / 10
		}
		depth := req.Depth
		if depth <= 0 {
			depth = 12
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		d, err = xtalksta.Generate(circuitgen.Params{
			Seed: seed, Cells: req.Cells, DFFs: dffs, Depth: depth, ClockFanout: 8,
		}, bopts)
		title = fmt.Sprintf("synthetic %d cells (seed %d)", req.Cells, seed)
	default:
		writeErr(w, http.StatusBadRequest, "one of preset or cells is required")
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "building design: %v", err)
		return
	}
	if err := s.Register(req.ID, title, d); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	info, err := s.designInfo(s.entry(req.ID))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*designEntry, 0, len(s.designs))
	for _, e := range s.designs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]designInfo, 0, len(entries))
	for _, e := range entries {
		info, err := s.designInfo(e)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, struct {
		Designs []designInfo `json:"designs"`
	}{out})
}

type coupledPair struct {
	A string  `json:"a"`
	B string  `json:"b"`
	C float64 `json:"c_farads"`
}

func (s *Server) handleGetDesign(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "no such design")
		return
	}
	info, err := s.designInfo(e)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	maxPairs := 16
	if v := r.URL.Query().Get("pairs"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			maxPairs = n
		}
	}
	pairs := e.d.CoupledPairs(maxPairs)
	out := struct {
		designInfo
		CoupledPairs []coupledPair `json:"coupled_pairs"`
	}{designInfo: info}
	for _, p := range pairs {
		out.CoupledPairs = append(out.CoupledPairs, coupledPair{A: p.A, B: p.B, C: p.C})
	}
	writeJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Analyze: admission + coalescing + response cache
// ---------------------------------------------------------------------------

type analyzeReq struct {
	Mode      string `json:"mode"`
	Corner    string `json:"corner"`
	TimeoutMs int    `json:"timeout_ms"`
}

type analyzeResp struct {
	Design         string  `json:"design"`
	Revision       uint64  `json:"revision"`
	Mode           string  `json:"mode"`
	Corner         string  `json:"corner,omitempty"`
	LongestPathNs  float64 `json:"longest_path_ns"`
	EndpointNet    string  `json:"endpoint_net"`
	EndpointKind   string  `json:"endpoint_kind"`
	Passes         int     `json:"passes"`
	ArcEvaluations int64   `json:"arc_evaluations"`
	RuntimeMs      float64 `json:"runtime_ms"`
}

func parseMode(s string) (xtalksta.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "iterative", "iter":
		return xtalksta.Iterative, nil
	case "best", "bestcase":
		return xtalksta.BestCase, nil
	case "doubled", "static", "staticdoubled":
		return xtalksta.StaticDoubled, nil
	case "worst", "worstcase":
		return xtalksta.WorstCase, nil
	case "onestep", "one-step", "one":
		return xtalksta.OneStep, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func parseCorner(s string) (xtalksta.Corner, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "TT", "TYPICAL":
		return "", nil // typical corner: the design's own calculator
	case "SS", "SLOW":
		return xtalksta.Corner("SS"), nil
	case "FF", "FAST":
		return xtalksta.Corner("FF"), nil
	}
	return "", fmt.Errorf("unknown corner %q (want SS, TT or FF)", s)
}

// cachedOrFlight answers from the entry's response cache when the key
// is still current, otherwise coalesces concurrent identical queries
// onto one execution of build (which runs under admission and fills
// the cache). The returned body is shared verbatim across cache hits,
// the leader and every follower.
func (s *Server) cachedOrFlight(ctx context.Context, e *designEntry, rev uint64, key, ctype string, build func() (int, []byte, error)) (int, []byte, bool, error) {
	e.mu.Lock()
	if e.cacheRev == rev {
		if c, ok := e.cache[key]; ok {
			e.mu.Unlock()
			s.cacheHits.Inc()
			return c.status, c.body, true, nil
		}
	}
	e.mu.Unlock()

	status, body, leader, err := s.flights.do(ctx, key, func() (int, []byte, error) {
		s.coalLeaders.Inc()
		if s.hookLeader != nil {
			s.hookLeader(key)
		}
		status, body, err := build()
		if err == nil && status == http.StatusOK {
			e.mu.Lock()
			if e.cacheRev != rev {
				e.cache = nil
				e.cacheRev = rev
			}
			if e.cache == nil {
				e.cache = make(map[string]cachedResp)
			}
			e.cache[key] = cachedResp{status: status, body: body, ctype: ctype}
			e.mu.Unlock()
		}
		return status, body, err
	})
	if !leader && err == nil {
		s.coalHits.Inc()
	}
	return status, body, false, err
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "no such design")
		return
	}
	var req analyzeReq
	if r.ContentLength != 0 {
		// An unknown field is an error, not silently ignored: a client
		// asking for an option the engine lacks must not be served a
		// different analysis.
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	corner, err := parseCorner(req.Corner)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()

	rev := e.d.Revision()
	key := fmt.Sprintf("analyze|%s|r%d|%s|%s", e.id, rev, mode, corner)
	status, body, fromCache, err := s.cachedOrFlight(ctx, e, rev, key, "application/json", func() (int, []byte, error) {
		if err := s.adm.Acquire(ctx); err != nil {
			return shedStatus(err), mustJSON(errorResp{Error: err.Error()}), nil
		}
		defer s.adm.Release()
		res, rrev, err := s.runAnalysis(e, mode, corner)
		if err != nil {
			return http.StatusInternalServerError, mustJSON(errorResp{Error: err.Error()}), nil
		}
		return http.StatusOK, mustJSON(analyzeResp{
			Design: e.id, Revision: rrev, Mode: res.Mode.String(), Corner: req.Corner,
			LongestPathNs: res.LongestPath * 1e9,
			EndpointNet:   res.Endpoint.Net, EndpointKind: string(res.Endpoint.Kind),
			Passes: res.Passes, ArcEvaluations: res.ArcEvaluations,
			RuntimeMs: float64(res.Runtime) / 1e6,
		}), nil
	})
	if err != nil {
		writeErr(w, shedStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if fromCache {
		w.Header().Set("X-Cache", "hit")
	}
	w.WriteHeader(status)
	w.Write(body)
}

// runAnalysis executes one analysis session for the server: the
// typical corner through Design.Analyze (its result seeds future
// incremental reanalyses), other corners through the memoized
// single-corner path.
func (s *Server) runAnalysis(e *designEntry, mode xtalksta.Mode, corner xtalksta.Corner) (*xtalksta.AnalysisResult, uint64, error) {
	opts := xtalksta.AnalysisOptions{
		Mode:    mode,
		Workers: s.workers,
		Metrics: s.reg,
	}
	if corner != "" {
		res, err := e.d.AnalyzeCorner(corner, opts)
		return res, e.d.Revision(), err
	}
	res, err := e.d.Analyze(opts)
	if err != nil {
		return nil, 0, err
	}
	rev := e.d.Revision()
	if res.Replay != nil {
		rev = res.Replay.Revision()
		e.mu.Lock()
		e.lastFull[mode] = res
		e.mu.Unlock()
	}
	return res, rev, nil
}

// mustJSON marshals a value the server itself built; a failure is a
// programming error and degrades to a JSON error object.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return append(b, '\n')
}

// ---------------------------------------------------------------------------
// Edit: streaming ECO batches into Design.Edit / Design.Reanalyze
// ---------------------------------------------------------------------------

type editReq struct {
	Edits []incremental.Edit `json:"edits"`
	// ReanalyzeMode, when set, re-runs that mode incrementally after
	// applying the batch (seeded from the server's last full result of
	// the mode; falls back to a full analysis when none exists).
	ReanalyzeMode string `json:"reanalyze_mode"`
	TimeoutMs     int    `json:"timeout_ms"`
}

type editResp struct {
	Design        string   `json:"design"`
	Revision      uint64   `json:"revision"`
	Applied       int      `json:"applied"`
	Mode          string   `json:"mode,omitempty"`
	LongestPathNs *float64 `json:"longest_path_ns,omitempty"`
	DirtyLines    int64    `json:"dirty_lines,omitempty"`
	ReusedLines   int64    `json:"reused_lines,omitempty"`
	FullFallback  bool     `json:"full_fallback,omitempty"`
	Incremental   bool     `json:"incremental"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "no such design")
		return
	}
	var req editReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Edits) == 0 {
		writeErr(w, http.StatusBadRequest, "edits is required")
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	if err := s.adm.Acquire(ctx); err != nil {
		writeErr(w, shedStatus(err), "%v", err)
		return
	}
	defer s.adm.Release()

	resp := editResp{Design: e.id, Applied: len(req.Edits)}
	if req.ReanalyzeMode == "" {
		if err := e.d.Edit(req.Edits...); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "applying edits: %v", err)
			return
		}
		s.editBatches.Inc()
		resp.Revision = e.d.Revision()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	mode, err := parseMode(req.ReanalyzeMode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	e.mu.Lock()
	prev := e.lastFull[mode]
	e.mu.Unlock()
	var res *xtalksta.AnalysisResult
	if prev != nil {
		res, err = e.d.Reanalyze(prev, req.Edits)
	} else {
		// No seed yet: apply the batch, then run the mode from scratch
		// (establishing the seed for the next edit).
		if err = e.d.Edit(req.Edits...); err == nil {
			res, _, err = s.runAnalysis(e, mode, "")
		}
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "edit+reanalyze: %v", err)
		return
	}
	s.editBatches.Inc()
	if res.Replay != nil {
		e.mu.Lock()
		e.lastFull[mode] = res
		e.mu.Unlock()
	}
	resp.Revision = e.d.Revision()
	resp.Mode = res.Mode.String()
	lp := res.LongestPath * 1e9
	resp.LongestPathNs = &lp
	if res.ECO != nil {
		resp.Incremental = true
		resp.DirtyLines = res.ECO.DirtyLines
		resp.ReusedLines = res.ECO.ReusedLines
		resp.FullFallback = res.ECO.FullFallback
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// Paths: the PR 6 attribution renderers over HTTP
// ---------------------------------------------------------------------------

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	e := s.entry(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "no such design")
		return
	}
	q := r.URL.Query()
	mode, err := parseMode(q.Get("mode"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	topk := 5
	if v := q.Get("topk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad topk %q", v)
			return
		}
		topk = n
	}
	asJSON := q.Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()

	rev := e.d.Revision()
	ctype := "text/plain; charset=utf-8"
	if asJSON {
		ctype = "application/json"
	}
	key := fmt.Sprintf("paths|%s|r%d|%s|k%d|json%t", e.id, rev, mode, topk, asJSON)
	status, body, fromCache, err := s.cachedOrFlight(ctx, e, rev, key, ctype, func() (int, []byte, error) {
		if err := s.adm.Acquire(ctx); err != nil {
			return shedStatus(err), mustJSON(errorResp{Error: err.Error()}), nil
		}
		defer s.adm.Release()
		opts := xtalksta.AnalysisOptions{
			Mode: mode, Workers: s.workers, Metrics: s.reg,
			Attribution: true, AttributionTopK: topk,
		}
		res, err := e.d.Analyze(opts)
		if err != nil {
			return http.StatusInternalServerError, mustJSON(errorResp{Error: err.Error()}), nil
		}
		if res.Replay != nil {
			e.mu.Lock()
			e.lastFull[mode] = res
			e.mu.Unlock()
		}
		ra := report.BuildAttribution(res.Attribution)
		var buf strings.Builder
		if asJSON {
			if err := ra.WriteJSON(&buf); err != nil {
				return http.StatusInternalServerError, mustJSON(errorResp{Error: err.Error()}), nil
			}
		} else {
			if err := ra.Render(&buf); err != nil {
				return http.StatusInternalServerError, mustJSON(errorResp{Error: err.Error()}), nil
			}
		}
		// The freshest attribution also feeds /debug/obs/critpath.
		if !asJSON {
			s.obsSrv.SetCritpath(buf.String(), ra)
		}
		return http.StatusOK, []byte(buf.String()), nil
	})
	if err != nil {
		writeErr(w, shedStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	if fromCache {
		w.Header().Set("X-Cache", "hit")
	}
	w.WriteHeader(status)
	w.Write(body)
}

// ---------------------------------------------------------------------------
// Listener lifecycle (the daemon's serve loop, shared with tests)
// ---------------------------------------------------------------------------

// Start listens on addr (host:port; port 0 picks a free port) and
// serves in a background goroutine. Use Addr for the bound address and
// Shutdown for a graceful drain.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.http = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go s.http.Serve(lis)
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Shutdown drains the daemon: the listener closes immediately (the
// port is reusable, nothing leaks), in-flight requests — including
// analyses already holding admission slots — run to completion, and
// the call returns when drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.http == nil {
		return nil
	}
	return s.http.Shutdown(ctx)
}

// Close tears the server down immediately (tests' cleanup path).
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}
