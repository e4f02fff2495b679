// Tier-0 analytical arc bounds (DESIGN.md §14). The full Newton
// transient in simulate() is exact but expensive; for arcs that are
// nowhere near the longest path — and whose coupling decisions cannot
// flip — the engine only needs *guaranteed brackets* on the result, not
// the result itself. Tier0Bounds delivers those brackets from the
// closed-form one-pole response (internal/elmore bounds helpers, after
// arXiv:1304.0835's leading-order coupled-RC solution) wrapped in
// per-(gate, direction, coupled) envelopes calibrated against the
// Newton kernel itself with generous headroom.
//
// Soundness contract: for any request the calculator would serve, the
// measured Delay/OutSlew/TimeToRestart/Completion of Eval's result lie
// inside the returned brackets. The envelopes are calibrated, not
// proven, so the engine treats a violated bracket as a hard error
// (taint → discard and rerun all-Newton); the property test in
// tier0_test.go pins the contract over the primitive-arc grid.
package delaycalc

import (
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/elmore"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// Bounds brackets every measured quantity of one arc evaluation. All
// times are relative to the input ramp's 50% crossing, like Result.
type Bounds struct {
	DelayLo, DelayHi           float64
	SlewLo, SlewHi             float64
	TTRLo, TTRHi               float64
	CompletionLo, CompletionHi float64
}

// BoundsEvaluator is the optional interface of evaluators that can
// bracket an arc analytically without simulating it. The Calculator
// implements it; evaluators that cannot (the LUT fallback chain) simply
// lack it and the engine's tier dispatcher degrades to all-Newton.
type BoundsEvaluator interface {
	Tier0Bounds(Request) (Bounds, bool)
}

// tier0Base holds the closed-form one-pole estimates the envelopes
// scale: raw crossing times of the idealized step (or coupling-event)
// response, with no input-ramp or transistor-region corrections — the
// calibrated bands absorb those.
type tier0Base struct {
	delay      float64
	slew       float64
	ttr        float64
	completion float64
	coupled    bool
}

// tier0Base computes the analytic bases for a (possibly quantized)
// request. ok=false when the stage cannot be characterized analytically
// (unknown kind, degenerate response) — never an error, just "no fast
// tier for this arc".
func (c *Calculator) tier0Base(r Request) (tier0Base, bool) {
	p := c.Lib.Proc
	selfCap, err := ccc.OutputDrainCap(p, c.Sizing, r.Kind, r.NIn, r.SizeMult)
	if err != nil {
		return tier0Base{}, false
	}
	rd, err := ccc.DriveResistance(c.Lib, c.Sizing, r.Kind, r.NIn, r.SizeMult)
	if err != nil {
		return tier0Base{}, false
	}
	ctot := r.CLoad + r.CFar + r.CCouple + selfCap
	rc := rd*ctot + r.RWire*(r.CFar+r.CCouple)
	if !(rc > 0) {
		return tier0Base{}, false
	}
	vdd := p.VDD
	mid := vdd / 2

	b := tier0Base{
		delay:      elmore.StepMid(rc),
		slew:       rc,
		completion: elmore.StepCompletion(rc),
	}
	// TimeToRestart: first crossing of the coupling model's restart
	// voltage on the pre-event waveform. Vth for rising and VDD−Vth for
	// falling are symmetric around VDD/2, so one form serves both.
	b.ttr = rc * math.Log(vdd/(vdd-c.Model.Vth))

	if r.CCouple > 0 {
		// The coupling event splits the response in two one-pole
		// segments: charge to the trigger, reset by the divider drop,
		// recover to the measurement voltage. Same divider ground as
		// simulate().
		dividerGnd := r.CLoad + r.CFar + selfCap
		if r.RWire > 0 {
			dividerGnd = r.CFar
		}
		var v0, vinf, v95 float64
		var ev, evOk = func() (ccEvent, bool) {
			if r.Dir == waveform.Rising {
				e, ok := c.Model.RisingEvent(r.CCouple, dividerGnd)
				return ccEvent{e.Trigger, e.Restart}, ok
			}
			e, ok := c.Model.FallingEvent(r.CCouple, dividerGnd)
			return ccEvent{e.Trigger, e.Restart}, ok
		}()
		if evOk {
			if r.Dir == waveform.Rising {
				v0, vinf, v95 = 0, vdd, 0.95*vdd
			} else {
				v0, vinf, v95 = vdd, 0, 0.05*vdd
			}
			d, ok := elmore.CoupledCross(rc, v0, vinf, ev.trigger, ev.restart, mid)
			if !ok {
				return tier0Base{}, false
			}
			done, ok := elmore.CoupledCross(rc, v0, vinf, ev.trigger, ev.restart, v95)
			if !ok {
				return tier0Base{}, false
			}
			b.delay, b.completion, b.coupled = d, done, true
		}
	}
	if math.IsNaN(b.delay) || math.IsInf(b.delay, 0) ||
		math.IsNaN(b.completion) || math.IsInf(b.completion, 0) ||
		math.IsNaN(b.ttr) || math.IsInf(b.ttr, 0) {
		return tier0Base{}, false
	}
	return b, true
}

// ccEvent is a local (trigger, restart) pair so tier0Base can treat the
// rising and falling coupling events uniformly.
type ccEvent struct{ trigger, restart float64 }

// t0Band is one metric's calibrated envelope: the Newton-measured value
// m of a request with analytic base b and input slew s satisfies
//
//	aLo·b + bLo·s ≤ m ≤ aHi·b + bHi·s
//
// over the calibration grid plus headroom (see tier0_calib_test.go,
// which regenerates the table below against the live kernel).
type t0Band struct{ aLo, bLo, aHi, bHi float64 }

func (b t0Band) bracket(base, slew float64) (lo, hi float64) {
	return b.aLo*base + b.bLo*slew, b.aHi*base + b.bHi*slew
}

// t0Env groups the four metric envelopes of one calibration class.
type t0Env struct{ delay, slew, ttr, completion t0Band }

// t0Key selects a calibration class: envelopes are calibrated per
// (gate kind, fan-in, switching pin, output direction, coupled) and per
// slew-to-RC regime bin. The regime — how slow the input ramp is
// relative to the stage's own RC response — is the dominant axis the
// one-pole base cannot capture (fast inputs behave like steps, slow
// inputs track the ramp through the transistor's linear region), so
// binning it is what makes the envelopes tight enough to prune with.
type t0Key struct {
	kind     netlist.GateKind
	nin, pin int
	dir      waveform.Direction
	coupled  bool
	regime   int
}

// tier0Regime bins InSlew relative to the stage RC time constant on a
// geometric grid. Bin edges are shared with the calibration generator.
func tier0Regime(slew, rc float64) int {
	q := slew / rc
	switch {
	case q < 1:
		return 0
	case q < 4:
		return 1
	case q < 16:
		return 2
	default:
		return 3
	}
}

// Calibration domain of the envelope table. The generator's grid
// (tier0_calib_test.go) is built from these, and Tier0Bounds refuses
// requests outside the interior of the hull: the envelopes are fitted,
// not derived, so extrapolating them past the grid edge is exactly how
// brackets go unsound. The interior factors leave room for the cache
// quantizer to move a request toward the edge without crossing it.
const (
	tier0CalSlewMin = 0.04e-9 // grid's smallest input slew (s)
	tier0CalSlewMax = 2.5e-9  // grid's largest input slew (s)
	tier0CalLoadMin = 2e-15   // grid's smallest total load (F)
	tier0CalLoadMax = 560e-15 // grid's largest total load (F)
	tier0CalRWMax   = 1500.0  // grid's largest wire resistance (Ω)
	tier0CalSizeMax = 4.0     // grid's largest size multiplier (INV)
)

// tier0InDomain reports whether a (quantized) request lies comfortably
// inside the calibrated hull — see the constants above.
func tier0InDomain(r Request) bool {
	total := r.CLoad + r.CFar + r.CCouple
	return r.InSlew >= tier0CalSlewMin && r.InSlew <= 0.8*tier0CalSlewMax &&
		total >= 1.5*tier0CalLoadMin && total <= 0.8*tier0CalLoadMax &&
		r.RWire <= tier0CalRWMax &&
		r.SizeMult <= tier0CalSizeMax &&
		(r.SizeMult == 1 || r.Kind == netlist.INV)
}

// Tier0Bounds implements BoundsEvaluator: guaranteed brackets on what
// Eval would return for r, without simulating. With the cache enabled
// the brackets cover the quantized representative — exactly the result
// Eval serves — so cache quantization can never push the served result
// outside them.
func (c *Calculator) Tier0Bounds(r Request) (Bounds, bool) {
	if c.validate(r) != nil {
		return Bounds{}, false
	}
	if r.SizeMult <= 0 {
		r.SizeMult = 1
	}
	if !c.opts.DisableCache {
		r = c.representative(c.key(r), r)
	}
	if !tier0InDomain(r) {
		return Bounds{}, false
	}
	b, ok := c.tier0Base(r)
	if !ok {
		return Bounds{}, false
	}
	env, ok := tier0Bands[t0Key{
		kind: r.Kind, nin: r.NIn, pin: r.Pin, dir: r.Dir,
		coupled: b.coupled, regime: tier0Regime(r.InSlew, b.slew),
	}]
	if !ok {
		return Bounds{}, false
	}
	var out Bounds
	out.DelayLo, out.DelayHi = env.delay.bracket(b.delay, r.InSlew)
	out.SlewLo, out.SlewHi = env.slew.bracket(b.slew, r.InSlew)
	out.TTRLo, out.TTRHi = env.ttr.bracket(b.ttr, r.InSlew)
	out.CompletionLo, out.CompletionHi = env.completion.bracket(b.completion, r.InSlew)
	for _, v := range [...]float64{
		out.DelayLo, out.DelayHi, out.SlewLo, out.SlewHi,
		out.TTRLo, out.TTRHi, out.CompletionLo, out.CompletionHi,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Bounds{}, false
		}
	}
	if out.DelayLo > out.DelayHi || out.SlewLo > out.SlewHi ||
		out.TTRLo > out.TTRHi || out.CompletionLo > out.CompletionHi {
		return Bounds{}, false
	}
	return out, true
}

var _ BoundsEvaluator = (*Calculator)(nil)
