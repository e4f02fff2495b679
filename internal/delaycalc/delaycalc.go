// Package delaycalc computes timing-arc delays at transistor level
// (paper §3): every arc is a stage circuit (driving cell + lumped load)
// solved by Newton iteration on table device models, with the paper's
// coupling model (§2) injected as an instantaneous state event when the
// arc has actively coupling neighbors.
//
// A memoizing characterization cache quantizes input slew, load,
// coupling capacitance, far-node capacitance and wire resistance onto
// geometric buckets, so large circuits reuse the handful of
// electrically distinct stage simulations — the same idea as on-the-fly
// library characterization in production timers.
package delaycalc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/spice"
	"xtalksta/internal/waveform"
)

// Request describes one timing-arc evaluation.
type Request struct {
	Kind netlist.GateKind
	NIn  int
	Pin  int
	// Dir is the OUTPUT transition direction; the library is fully
	// inverting, so the switching input transitions opposite.
	Dir waveform.Direction
	// InSlew is the full-swing ramp time of the input waveform.
	InSlew float64
	// CLoad is the grounded load at the driver output: in the paper's
	// lumped model (RWire = 0) it is the entire load — wire cap, sink
	// pin caps and all passively-treated coupling capacitance.
	CLoad float64
	// CCouple is the actively coupling capacitance. Zero disables the
	// coupling event. The capacitance itself still loads the output
	// (grounded before and after the event, per the model).
	CCouple float64
	// RWire and CFar enable the π-model extension: CLoad stays at the
	// driver (near) node, RWire connects to a far node carrying CFar
	// plus the coupling capacitance, and the delay is measured at the
	// far node (resistive shielding; beyond the paper's lumped model).
	RWire float64
	CFar  float64
	// SizeMult scales the cell (clock buffers).
	SizeMult float64
}

// Result is the outcome of one arc evaluation. All times are relative
// to the 50% crossing of the input ramp.
type Result struct {
	// Delay is input-50% to output-50%.
	Delay float64
	// OutSlew is the fitted full-swing output ramp time.
	OutSlew float64
	// TimeToRestart is input-50% to the output's crossing of the
	// coupling-model restart voltage (Vth for rising, VDD−Vth for
	// falling) — the paper's t_bcs measurement point. Only meaningful
	// for uncoupled (best-case) runs.
	TimeToRestart float64
	// Completion is input-50% to the output reaching ~95% of its swing
	// (used for quiescent-time bookkeeping).
	Completion float64
	// EventTime is input-50% to the coupling event, or NaN when no
	// event fired.
	EventTime float64
}

// Options configures the calculator.
type Options struct {
	// DisableCache forces every request through a fresh simulation.
	DisableCache bool
	// Metrics, when set, receives cache-shard and integration-kernel
	// instrumentation under the obs.M* names.
	Metrics *obs.Registry
}

// Characterization numerics. The tier-0 envelopes (tier0_bands.go) and
// the parity fixture are calibrated against exactly these values;
// changing one is a numeric change that needs both regenerated.
const (
	// slewLoadBucket is the geometric bucket ratio of the cache key's
	// slew, load, coupling, far-cap and wire-R quantization (10%
	// buckets).
	slewLoadBucket = 1.10
	// stepsPerRun sets the transient resolution: the baseline fine step
	// (window/stepsPerRun) of the adaptive kernel.
	stepsPerRun = 700
	// lteTol is the adaptive kernel's local-truncation-error tolerance
	// in volts per step; a fixed stepsPerRun-step grid is the reference
	// it converges to.
	lteTol = 1e-3
)

// cacheShards is the number of lock stripes of the characterization
// cache; a power of two, since shardOf masks the hash with
// cacheShards-1.
const cacheShards = 8

// logRatio is math.Log(slewLoadBucket), the divisor of every geometric
// bucket key.
var logRatio = math.Log(slewLoadBucket)

// Calculator evaluates timing arcs. It is safe for concurrent use: the
// characterization cache is lock-striped into power-of-two shards so
// level-parallel workers only contend when their requests hash to the
// same stripe, and each shard preserves per-key single-flight (the
// property that keeps the Simulations counter deterministic under any
// worker count).
type Calculator struct {
	Lib    *device.Library
	Sizing ccc.Sizing
	Model  coupling.Model
	opts   Options

	shards [cacheShards]cacheShard

	// Work counters. Atomic (not mutex-guarded) so concurrent level
	// workers never serialize on bookkeeping; read via Stats/Counters.
	requests    atomic.Int64
	misses      atomic.Int64
	hits        atomic.Int64
	newtonIters atomic.Int64
	newtonFails atomic.Int64
	// inserted counts the results stored in the cache since it was
	// created or last cleared; each entry records its insertion index
	// (see Horizon).
	inserted atomic.Int64

	// Registry instruments (live but unregistered when Options.Metrics
	// is nil). Hit/contention counts depend on goroutine scheduling and
	// are deliberately NOT part of Counters.
	m calcMetrics
}

// cacheShard is one lock stripe of the characterization cache.
type cacheShard struct {
	mu       sync.Mutex
	cache    map[cacheKey]cacheEntry
	inflight map[cacheKey]*flight
}

// cacheEntry is one characterized result and its insertion index: the
// value of Calculator.inserted after it was stored, assigned under the
// shard lock.
type cacheEntry struct {
	res Result
	seq int64
}

// calcMetrics holds the calculator's resolved obs instruments. enabled
// gates the per-evaluation latency clock: without a registry the hot
// path must not pay two time.Now() calls per arc, and results are
// bit-identical either way (the clock never feeds the analysis).
type calcMetrics struct {
	hits, misses, contention           *obs.Counter
	steps, rejections, earlyStops, ext *obs.Counter
	evalDur                            *obs.Histogram
	enabled                            bool
}

func newCalcMetrics(r *obs.Registry) calcMetrics {
	return calcMetrics{
		hits:       r.Counter(obs.MDelayCacheHits),
		misses:     r.Counter(obs.MDelayCacheMisses),
		contention: r.Counter(obs.MDelayCacheContention),
		steps:      r.Counter(obs.MSimSteps),
		rejections: r.Counter(obs.MSimStepRejections),
		earlyStops: r.Counter(obs.MSimEarlyStops),
		ext:        r.Counter(obs.MSimWindowExtensions),
		evalDur:    r.HistogramWith(obs.MArcEvalDuration, obs.DurationBounds),
		enabled:    r != nil,
	}
}

// flight is one in-progress characterization. Concurrent requests for
// the same cache key wait on done instead of duplicating the stage
// simulation (single-flight), which both saves work and makes the
// Simulations counter deterministic under any worker count.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// New builds a calculator for the process behind lib.
func New(lib *device.Library, sizing ccc.Sizing, model coupling.Model, opts Options) *Calculator {
	c := &Calculator{
		Lib:    lib,
		Sizing: sizing,
		Model:  model,
		opts:   opts,
		m:      newCalcMetrics(opts.Metrics),
	}
	for i := range c.shards {
		c.shards[i].cache = make(map[cacheKey]cacheEntry)
		c.shards[i].inflight = make(map[cacheKey]*flight)
	}
	return c
}

// mix64 is the splitmix64 finalizer — a full-avalanche mix so cache
// keys that differ only in low bucket bits still spread over shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// shardOf picks the lock stripe for a cache key.
func (c *Calculator) shardOf(k cacheKey) *cacheShard {
	w1 := uint64(uint8(k.kind)) | uint64(uint16(k.nin))<<8 |
		uint64(uint16(k.pin))<<24 | uint64(uint8(k.dir))<<40 |
		uint64(uint16(k.slewB))<<48
	w2 := uint64(uint16(k.loadB)) | uint64(uint16(k.cplB))<<16 |
		uint64(uint16(k.farB))<<32 | uint64(uint16(k.rwB))<<48
	h := mix64(mix64(w1) ^ w2 ^ uint64(uint16(k.sizeB))<<13)
	return &c.shards[h&(cacheShards-1)]
}

// lock acquires a shard's mutex, counting the acquisitions that had to
// wait (observability only — TryLock first, so the uncontended path
// costs one CAS like a plain Lock).
func (c *Calculator) lock(sh *cacheShard) {
	if sh.mu.TryLock() {
		return
	}
	c.m.contention.Inc()
	sh.mu.Lock()
}

// Stats returns the number of requests served and the number that
// required a fresh stage simulation.
func (c *Calculator) Stats() (requests, simulations int64) {
	return c.requests.Load(), c.misses.Load()
}

// ResetStats clears the counters (not the cache).
func (c *Calculator) ResetStats() {
	c.requests.Store(0)
	c.misses.Store(0)
	c.hits.Store(0)
	c.newtonIters.Store(0)
	c.newtonFails.Store(0)
}

// Counters returns a point-in-time snapshot of all work counters.
func (c *Calculator) Counters() Counters {
	return Counters{
		Requests:         c.requests.Load(),
		Simulations:      c.misses.Load(),
		CacheHits:        c.hits.Load(),
		NewtonIterations: c.newtonIters.Load(),
		NewtonFailures:   c.newtonFails.Load(),
	}
}

// ClearCache drops all characterized results and restarts the
// insertion count, so Horizon reads 0 on an empty cache. The experiment
// harness clears between analysis modes so each mode's runtime includes
// its own characterization cost, mirroring how the paper times each
// analysis as a standalone run.
func (c *Calculator) ClearCache() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		c.shards[i].cache = make(map[cacheKey]cacheEntry)
	}
	c.inserted.Store(0)
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// CacheEntries returns the number of characterized results currently
// held across all shards. The ECO flow reports it to show how much of
// the warm characterization cache carries over between revisions.
func (c *Calculator) CacheEntries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.cache)
		sh.mu.Unlock()
	}
	return n
}

type cacheKey struct {
	kind     netlist.GateKind
	nin, pin int
	dir      waveform.Direction
	slewB    int16
	loadB    int16
	cplB     int16
	farB     int16
	rwB      int16
	sizeB    int16
}

// zeroBucket marks an exactly-zero quantity in the cache key.
const zeroBucket = int16(-32768)

// Quantization anchors: bucket 0 of the geometric grids.
const (
	slewRef = 5e-12   // 5 ps
	loadRef = 0.5e-15 // 0.5 fF
	rRef    = 1.0     // 1 Ω
)

// geoBucket maps v onto the geometric grid anchored at ref whose ratio
// has natural log logRatio.
func geoBucket(v, ref, logRatio float64) int16 {
	if v <= ref {
		return 0
	}
	return int16(math.Round(math.Log(v/ref) / logRatio))
}

// bucketOrZero is geoBucket with exact zero kept distinct.
func bucketOrZero(v, ref, logRatio float64) int16 {
	if v <= 0 {
		return zeroBucket
	}
	return geoBucket(v, ref, logRatio)
}

func geoCenter(b int16, ref, ratio float64) float64 {
	return ref * math.Pow(ratio, float64(b))
}

func centerOrZero(b int16, ref, ratio float64) float64 {
	if b == zeroBucket {
		return 0
	}
	return geoCenter(b, ref, ratio)
}

// key maps a validated request to its cache key: all a cache hit needs,
// so the hit path pays only the bucket logarithms.
func (c *Calculator) key(r Request) cacheKey {
	lr := logRatio
	k := cacheKey{kind: r.Kind, nin: r.NIn, pin: r.Pin, dir: r.Dir}
	k.slewB = geoBucket(r.InSlew, slewRef, lr)
	k.loadB = bucketOrZero(r.CLoad, loadRef, lr)
	k.cplB = bucketOrZero(r.CCouple, loadRef, lr)
	k.farB = bucketOrZero(r.CFar, loadRef, lr)
	k.rwB = bucketOrZero(r.RWire, rRef, lr)
	k.sizeB = int16(math.Round(math.Log2(math.Max(r.SizeMult, 1)) * 4))
	return k
}

// representative is the request actually simulated for key k: r with
// every quantized field moved to its bucket centre. Built only on a
// cache miss and for Tier0Bounds, which must bracket the result a hit
// on k serves.
func (c *Calculator) representative(k cacheKey, r Request) Request {
	const ratio = slewLoadBucket
	q := r
	q.InSlew = geoCenter(k.slewB, slewRef, ratio)
	q.CLoad = centerOrZero(k.loadB, loadRef, ratio)
	q.CCouple = centerOrZero(k.cplB, loadRef, ratio)
	q.CFar = centerOrZero(k.farB, loadRef, ratio)
	q.RWire = centerOrZero(k.rwB, rRef, ratio)
	q.SizeMult = math.Pow(2, float64(k.sizeB)/4)
	return q
}

// Eval evaluates a timing arc, consulting the cache. Concurrent
// requests that quantize to the same cache key share one simulation.
func (c *Calculator) Eval(r Request) (Result, error) {
	res, _, err := c.EvalInfo(r)
	return res, err
}

// EvalInfo is Eval plus the per-call work breakdown, letting a session
// attribute requests, simulations and Newton work to the run that
// incurred them while the calculator's own counters stay shared. Cache
// hits and single-flight waiters report Simulations == 0 — the same
// accounting the shared counters use, so a session's sums match the
// serial Stats deltas exactly.
func (c *Calculator) EvalInfo(r Request) (Result, Info, error) {
	if c.m.enabled {
		t0 := time.Now()
		res, info, err := c.evalInfo(r)
		c.m.evalDur.Observe(time.Since(t0).Seconds())
		return res, info, err
	}
	return c.evalInfo(r)
}

func (c *Calculator) evalInfo(r Request) (Result, Info, error) {
	var info Info
	if err := c.validate(r); err != nil {
		return Result{}, info, err
	}
	if r.SizeMult <= 0 {
		r.SizeMult = 1
	}
	info.Requests = 1
	c.requests.Add(1)
	if c.opts.DisableCache {
		info.Simulations = 1
		c.misses.Add(1)
		res, err := c.simulate(r, &info)
		return res, info, err
	}
	key := c.key(r)
	sh := c.shardOf(key)
	c.lock(sh)
	if ent, ok := sh.cache[key]; ok {
		sh.mu.Unlock()
		info.CacheHits = 1
		c.hits.Add(1)
		c.m.hits.Inc()
		return ent.res, info, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		<-fl.done
		// A single-flight waiter got the result without simulating:
		// count it as a hit so hits + misses == requests.
		info.CacheHits = 1
		c.hits.Add(1)
		c.m.hits.Inc()
		return fl.res, info, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()
	info.Simulations = 1
	c.misses.Add(1)
	c.m.misses.Inc()

	res, err := c.simulate(c.representative(key, r), &info)
	c.lock(sh)
	if err == nil {
		sh.cache[key] = cacheEntry{res: res, seq: c.inserted.Add(1)}
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
	if err != nil {
		return Result{}, info, err
	}
	return res, info, nil
}

// Horizon returns the number of results stored in the cache since it
// was created or last cleared: 0 on an empty cache. A caller that
// records it can later ask Cached for exactly the entries that were
// present then, whatever has been stored since.
func (c *Calculator) Horizon() int64 { return c.inserted.Load() }

// Cached returns the cached result of r if its entry was stored at or
// before horizon (a value of Horizon), counting it as one request and
// one cache hit. It never simulates and never waits on a simulation in
// flight; a miss, or an invalid request, counts nothing.
func (c *Calculator) Cached(r Request, horizon int64) (Result, bool) {
	if c.opts.DisableCache || c.validate(r) != nil {
		return Result{}, false
	}
	if r.SizeMult <= 0 {
		r.SizeMult = 1
	}
	key := c.key(r)
	sh := c.shardOf(key)
	c.lock(sh)
	ent, ok := sh.cache[key]
	sh.mu.Unlock()
	if !ok || ent.seq > horizon {
		return Result{}, false
	}
	c.requests.Add(1)
	c.hits.Add(1)
	c.m.hits.Inc()
	return ent.res, true
}

// addNewton accumulates Newton work on the calculator-lifetime atomics
// and on the per-call Info (nil-safe for internal callers without one).
func (c *Calculator) addNewton(info *Info, iters, fails int64) {
	c.newtonIters.Add(iters)
	c.newtonFails.Add(fails)
	if info != nil {
		info.NewtonIterations += iters
		info.NewtonFailures += fails
	}
}

// requestFloatFields names Request's float fields in validate's order.
var requestFloatFields = [...]string{"InSlew", "CLoad", "CCouple", "CFar", "RWire", "SizeMult"}

func (c *Calculator) validate(r Request) error {
	switch r.Kind {
	case netlist.INV, netlist.NAND, netlist.NOR:
	default:
		return fmt.Errorf("delaycalc: kind %s is not a simulatable primitive", r.Kind)
	}
	// NaN passes every ordered comparison below and ±Inf has no cache
	// bucket, so non-finite values are refused first, by field.
	for i, v := range [...]float64{r.InSlew, r.CLoad, r.CCouple, r.CFar, r.RWire, r.SizeMult} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("delaycalc: non-finite %s %g", requestFloatFields[i], v)
		}
	}
	if r.InSlew <= 0 {
		return fmt.Errorf("delaycalc: non-positive input slew %g", r.InSlew)
	}
	if r.CLoad < 0 || r.CCouple < 0 || r.CFar < 0 || r.RWire < 0 {
		return fmt.Errorf("delaycalc: negative load (%g), coupling (%g), far cap (%g) or wire R (%g)",
			r.CLoad, r.CCouple, r.CFar, r.RWire)
	}
	return nil
}

// simulate runs the stage circuit for the (possibly quantized) request.
// info receives the per-call Newton breakdown (may be nil).
func (c *Calculator) simulate(r Request, info *Info) (Result, error) {
	s, err := c.prepare(r)
	if err != nil {
		return Result{}, err
	}
	return c.simulateAdaptive(r, s, info)
}

// stageSetup is one request's stage circuit, ready to integrate: the
// coupling event (if the request couples), the initial transient
// window, the input's 50% time and the total output capacitance.
type stageSetup struct {
	st       *ccc.Stage
	dir      waveform.Direction
	ev       coupling.Event
	hasEvent bool
	window   float64
	tIn50    float64
	ctot     float64
}

// prepare builds the stage circuit and coupling event of a request.
func (c *Calculator) prepare(r Request) (*stageSetup, error) {
	p := c.Lib.Proc
	var st *ccc.Stage
	var err error
	if r.RWire > 0 {
		// π-model: near cap at the driver, wire R to the far node with
		// CFar plus the coupling capacitance.
		st, err = ccc.BuildStageRC(c.Lib, c.Sizing, r.Kind, r.NIn, r.Pin, r.Dir,
			r.InSlew, r.CLoad, r.RWire, r.CFar+r.CCouple, r.SizeMult)
	} else {
		st, err = ccc.BuildStage(c.Lib, c.Sizing, r.Kind, r.NIn, r.Pin, r.Dir,
			r.InSlew, r.CLoad+r.CFar+r.CCouple, r.SizeMult)
	}
	if err != nil {
		return nil, err
	}

	// The divider sees everything grounded at the measurement node
	// except the active coupling cap itself. Lumped: the whole load
	// including the cell's own junctions; π-model: only the far-node
	// cap (the near cap is shielded by the wire resistance at the
	// instant of the step — the conservative choice).
	selfCap, err := ccc.OutputDrainCap(p, c.Sizing, r.Kind, r.NIn, r.SizeMult)
	if err != nil {
		return nil, err
	}
	dividerGnd := r.CLoad + r.CFar + selfCap
	if r.RWire > 0 {
		dividerGnd = r.CFar
	}
	s := &stageSetup{st: st, dir: r.Dir}
	if r.CCouple > 0 {
		if r.Dir == waveform.Rising {
			s.ev, s.hasEvent = c.Model.RisingEvent(r.CCouple, dividerGnd)
		} else {
			s.ev, s.hasEvent = c.Model.FallingEvent(r.CCouple, dividerGnd)
		}
	}

	rdrive, err := ccc.DriveResistance(c.Lib, c.Sizing, r.Kind, r.NIn, r.SizeMult)
	if err != nil {
		return nil, err
	}
	s.ctot = r.CLoad + r.CFar + r.CCouple + selfCap
	s.tIn50 = r.InSlew / 2
	s.window = r.InSlew + 25*(rdrive*s.ctot+r.RWire*(r.CFar+r.CCouple)) + 0.5e-9
	return s, nil
}

// events returns the stage's coupling-event list (empty when the
// request does not couple); the event's action stores its firing time
// in *fired.
func (s *stageSetup) events(fired *float64) []*spice.Event {
	if !s.hasEvent {
		return nil
	}
	out, restart := s.st.Far, s.ev.Restart
	return []*spice.Event{{
		Node:      out,
		Threshold: s.ev.Trigger,
		Dir:       s.dir,
		Action: func(t float64, st *spice.State) {
			st.SetV(out, restart)
			*fired = t
		},
	}}
}

// simulateAdaptive runs the stage on the adaptive-timestep kernel: one
// resumable integration whose trace is extended (never restarted) when
// the output has not settled, terminated early by the settle detector,
// with all scratch coming from the spice workspace pool.
func (c *Calculator) simulateAdaptive(r Request, s *stageSetup, info *Info) (Result, error) {
	p := c.Lib.Proc
	st, window := s.st, s.window
	eventTime := math.NaN()
	tn, err := st.Ckt.StartTransient(spice.TranOptions{
		DT:       window / stepsPerRun,
		LTETol:   lteTol,
		InitialV: st.InitialV,
		Probes:   []spice.NodeID{st.Far},
		Events:   s.events(&eventTime),
		// The settle detector uses a tolerance tighter than the 5%-of-
		// VDD settled check below, so an early stop always passes it.
		SettleV:       map[spice.NodeID]float64{st.Far: st.OutFinal},
		SettleTol:     0.02 * p.VDD,
		MinSettleTime: r.InSlew,
	})
	if err != nil {
		c.addNewton(info, 0, 1)
		return Result{}, fmt.Errorf("delaycalc: %s%d pin %d %s: %w", r.Kind, r.NIn, r.Pin, r.Dir, err)
	}
	defer func() {
		res := tn.Result()
		c.addNewton(info, int64(res.NewtonIterations), int64(res.NewtonRetries))
		c.m.steps.Add(int64(res.Steps))
		c.m.rejections.Add(int64(res.Rejections))
		if res.EarlyStop {
			c.m.earlyStops.Inc()
		}
		tn.Close()
	}()
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			window *= 2.5
			c.m.ext.Inc()
		}
		if err := tn.Advance(window); err != nil {
			c.addNewton(info, 0, 1)
			return Result{}, fmt.Errorf("delaycalc: %s%d pin %d %s: %w", r.Kind, r.NIn, r.Pin, r.Dir, err)
		}
		tr, err := tn.Result().Trace(st.Far)
		if err != nil {
			return Result{}, err
		}
		if tr.Settled(st.OutFinal, 0.05*p.VDD) {
			return c.measure(r, tr, s.tIn50, eventTime)
		}
	}
	return Result{}, fmt.Errorf("delaycalc: %s%d pin %d %s: output never settled (load %.3g F, slew %.3g s)",
		r.Kind, r.NIn, r.Pin, r.Dir, s.ctot, r.InSlew)
}

func (c *Calculator) measure(r Request, tr *spice.Trace, tIn50, eventTime float64) (Result, error) {
	p := c.Lib.Proc
	mid := p.VDD / 2
	t50, ok := tr.LastCrossing(mid, r.Dir)
	if !ok {
		return Result{}, fmt.Errorf("delaycalc: no 50%% output crossing")
	}
	// Restart-voltage crossing (t_bcs measurement point): first
	// crossing, on the pre-event waveform.
	var restartV float64
	if r.Dir == waveform.Rising {
		restartV = c.Model.Vth
	} else {
		restartV = p.VDD - c.Model.Vth
	}
	tRestart, ok := tr.FirstCrossing(restartV, r.Dir)
	if !ok {
		tRestart = t50 // degenerate; conservative
	}
	// Completion at 95% swing.
	var v95 float64
	if r.Dir == waveform.Rising {
		v95 = 0.95 * p.VDD
	} else {
		v95 = 0.05 * p.VDD
	}
	tDone, ok := tr.LastCrossing(v95, r.Dir)
	if !ok {
		tDone = tr.T[len(tr.T)-1]
	}
	// Output slew from the final monotone tail (post-event waveform).
	w, err := tr.MonotoneTail(r.Dir, restartV)
	if err != nil {
		return Result{}, fmt.Errorf("delaycalc: waveform extraction: %w", err)
	}
	fit, err := w.FitRamp(0, p.VDD)
	if err != nil {
		return Result{}, fmt.Errorf("delaycalc: ramp fit: %w", err)
	}
	outSlew := fit.End() - fit.Start()

	res := Result{
		Delay:         t50 - tIn50,
		OutSlew:       outSlew,
		TimeToRestart: tRestart - tIn50,
		Completion:    tDone - tIn50,
		EventTime:     math.NaN(),
	}
	if !math.IsNaN(eventTime) {
		res.EventTime = eventTime - tIn50
	}
	return res, nil
}
