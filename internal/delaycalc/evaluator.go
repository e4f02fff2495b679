package delaycalc

import (
	"xtalksta/internal/ccc"
	"xtalksta/internal/device"
)

// Evaluator is the arc-delay interface: the circuit-level Calculator is
// the reference implementation; the precharacterized LUT library
// (internal/liberty) is the fast one.
type Evaluator interface {
	// Eval computes one timing arc.
	Eval(Request) (Result, error)
	// ClearCache drops memoized results (no-op where not applicable).
	ClearCache()
	// Proc exposes the process parameters.
	Proc() device.Process
	// Siz exposes the library sizing.
	Siz() ccc.Sizing
}

// InfoEvaluator is the interface the STA engine consumes: Eval plus
// the work each call did. The engine tallies the returned Info per
// worker and publishes it once per pass, so concurrent sessions sharing
// one evaluator (and its characterization cache) each count exactly the
// work their own requests incurred. The Calculator and both liberty
// evaluators implement it.
type InfoEvaluator interface {
	Evaluator
	EvalInfo(Request) (Result, Info, error)
}

// Info is the work breakdown of one arc evaluation: the request itself,
// whether it ran a fresh stage simulation (as opposed to a cache hit or
// a single-flight wait, reported via CacheHits), and the Newton effort
// spent. All fields are additive counts, so a tally can simply sum
// them; Simulations + CacheHits == Requests for a cache-enabled
// calculator, which lets attribution renderers split a run's arc
// evaluations into characterization work vs cache reuse. A rejected
// request did no work and reports a zero Info.
type Info struct {
	Requests         int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	NewtonFailures   int64
}

// Counters is a point-in-time snapshot of the Calculator's lifetime
// work counters: the sum of every call's Info. Requests and Simulations
// mirror Stats; the Newton fields expose the transistor-level solver
// effort behind the simulations; CacheHits counts requests served from
// the characterization cache (including single-flight waiters), so
// Requests == Simulations + CacheHits for a cache-enabled calculator.
type Counters struct {
	Requests         int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	NewtonFailures   int64
}

// Sub returns the counter deltas c − prev (work done since prev was
// snapshotted).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Requests:         c.Requests - prev.Requests,
		Simulations:      c.Simulations - prev.Simulations,
		CacheHits:        c.CacheHits - prev.CacheHits,
		NewtonIterations: c.NewtonIterations - prev.NewtonIterations,
		NewtonFailures:   c.NewtonFailures - prev.NewtonFailures,
	}
}

// CounterProvider is the optional lifetime-counter interface an
// Evaluator may implement; the Calculator does.
type CounterProvider interface {
	Counters() Counters
}

// Proc implements Evaluator.
func (c *Calculator) Proc() device.Process { return c.Lib.Proc }

// Siz implements Evaluator.
func (c *Calculator) Siz() ccc.Sizing { return c.Sizing }

var _ InfoEvaluator = (*Calculator)(nil)
