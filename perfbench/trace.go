package main

import (
	"sync"
	"sync/atomic"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/obs"
)

// timedCalc is the traced run's view of the delay-calculator layer: a
// forwarding delaycalc.Evaluator around Design.Calc that times every
// call and splits the time into cache hits and misses (the misses are
// the calls that fall through into the spice/solver/device kernel).
//
// It forwards InfoEvaluator, BoundsEvaluator and CounterProvider. The
// engine wraps its evaluator in delaycalc.Scoped, which needs EvalInfo
// for per-session counters, and enables tier-0 only when the evaluator
// can bound arcs; a wrapper without them would silently change what is
// measured.
type timedCalc struct {
	inner *delaycalc.Calculator

	hits, misses  atomic.Int64
	hitNs, missNs atomic.Int64
	requests      atomic.Int64
	cover         sync.Mutex
	inflight      int
	coverFrom     time.Time
	covered       time.Duration // wall time with at least one call in flight
}

var (
	_ delaycalc.InfoEvaluator   = (*timedCalc)(nil)
	_ delaycalc.BoundsEvaluator = (*timedCalc)(nil)
	_ delaycalc.CounterProvider = (*timedCalc)(nil)
)

// EvalInfo implements delaycalc.InfoEvaluator.
func (t *timedCalc) EvalInfo(r delaycalc.Request) (delaycalc.Result, delaycalc.Info, error) {
	start := time.Now()
	t.cover.Lock()
	if t.inflight == 0 {
		t.coverFrom = start
	}
	t.inflight++
	t.cover.Unlock()

	res, info, err := t.inner.EvalInfo(r)

	end := time.Now()
	t.cover.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.covered += end.Sub(t.coverFrom)
	}
	t.cover.Unlock()

	d := int64(end.Sub(start))
	t.requests.Add(info.Requests)
	if info.Simulations > 0 {
		t.misses.Add(info.Simulations)
		t.missNs.Add(d)
	} else if info.CacheHits > 0 {
		t.hits.Add(info.CacheHits)
		t.hitNs.Add(d)
	}
	return res, info, err
}

// Eval implements delaycalc.Evaluator.
func (t *timedCalc) Eval(r delaycalc.Request) (delaycalc.Result, error) {
	res, _, err := t.EvalInfo(r)
	return res, err
}

// Tier0Bounds implements delaycalc.BoundsEvaluator. Bounds are analytic
// and cheap; they are forwarded untimed.
func (t *timedCalc) Tier0Bounds(r delaycalc.Request) (delaycalc.Bounds, bool) {
	return t.inner.Tier0Bounds(r)
}

// Counters implements delaycalc.CounterProvider.
func (t *timedCalc) Counters() delaycalc.Counters         { return t.inner.Counters() }
func (t *timedCalc) Stats() (requests, simulations int64) { return t.inner.Stats() }
func (t *timedCalc) ResetStats()                          { t.inner.ResetStats() }
func (t *timedCalc) ClearCache()                          { t.inner.ClearCache() }
func (t *timedCalc) Proc() device.Process                 { return t.inner.Proc() }
func (t *timedCalc) Siz() ccc.Sizing                      { return t.inner.Siz() }

// calcTotals is a snapshot of the wrapper's accumulators.
type calcTotals struct {
	requests, hits, misses int64
	hitNs, missNs          int64
	covered                time.Duration
}

func (t *timedCalc) totals() calcTotals {
	t.cover.Lock()
	covered := t.covered
	t.cover.Unlock()
	return calcTotals{
		requests: t.requests.Load(),
		hits:     t.hits.Load(),
		misses:   t.misses.Load(),
		hitNs:    t.hitNs.Load(),
		missNs:   t.missNs.Load(),
		covered:  covered,
	}
}

func (a calcTotals) sub(b calcTotals) calcTotals {
	return calcTotals{
		requests: a.requests - b.requests,
		hits:     a.hits - b.hits,
		misses:   a.misses - b.misses,
		hitNs:    a.hitNs - b.hitNs,
		missNs:   a.missNs - b.missNs,
		covered:  a.covered - b.covered,
	}
}

// spanLog is the traced run's trace sink: it keeps every span the
// program and the benchmark emit in memory (written out as a Chrome
// trace when the run ends) and remembers the duration of the latest
// span of each name, which is how the benchmark reads the program's
// own place/route/extract and eco-analysis spans.
type spanLog struct {
	obs.ChromeTrace

	mu   sync.Mutex
	last map[string]time.Duration
	sum  map[string]time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{last: map[string]time.Duration{}, sum: map[string]time.Duration{}}
}

// Emit implements obs.Sink.
func (s *spanLog) Emit(ev obs.TraceEvent) {
	s.ChromeTrace.Emit(ev)
	if ev.Phase != "X" {
		return
	}
	d := time.Duration(ev.Dur * float64(time.Microsecond))
	s.mu.Lock()
	s.last[ev.Name] = d
	s.sum[ev.Name] += d
	s.mu.Unlock()
}

// lastDur is the duration of the most recent span named name.
func (s *spanLog) lastDur(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last[name]
}

// forget drops the remembered latest span named name, so that a later
// lastDur reads only a span emitted after this call.
func (s *spanLog) forget(name string) {
	s.mu.Lock()
	delete(s.last, name)
	s.mu.Unlock()
}

// sumDur is the summed duration of every span named name.
func (s *spanLog) sumDur(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum[name]
}
