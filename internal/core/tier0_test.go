package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// TestTier0ParityAllModes is the tiered-evaluation exactness contract:
// with Options.Tier0 on, every mode's final timing state — longest
// path, per-net arrivals, slews and quiescent times — is bit-identical
// to the all-Newton run, while the Iterative mode's dispatcher
// actually prunes work (Tier0Hits > 0, so the parity is not vacuous).
// The tier-0 run starts on a cleared cache, so the probe answers nothing
// and the brackets do the work.
func TestTier0ParityAllModes(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 301)
	for _, m := range Modes() {
		off := runMode(t, c, calc, Options{Mode: m})
		calc.ClearCache()
		on := runMode(t, c, calc, Options{Mode: m, Tier0: true})
		bitEqual(t, off, on, m.String())
		if off.Tier0Hits != 0 || off.Tier0Fallbacks != 0 || off.Tier0FlipGuards != 0 {
			t.Errorf("%s: tier-0 counters nonzero with Tier0 off: %+v", m, off)
		}
		if m == Iterative {
			if on.Tier0Hits == 0 {
				t.Errorf("%s: Tier0Hits = 0 — the dispatcher pruned nothing, parity is vacuous", m)
			}
			if on.Tier0Fallbacks == 0 {
				t.Errorf("%s: Tier0Fallbacks = 0 — no near-critical arcs dispatched exactly?", m)
			}
			if on.ArcEvaluations >= off.ArcEvaluations {
				t.Errorf("%s: tier-0 run evaluated %d arcs, all-Newton %d — no reduction",
					m, on.ArcEvaluations, off.ArcEvaluations)
			}
			t.Logf("%s: evals %d -> %d (hits %d, fallbacks %d, flip guards %d)",
				m, off.ArcEvaluations, on.ArcEvaluations,
				on.Tier0Hits, on.Tier0Fallbacks, on.Tier0FlipGuards)
		}
	}
}

// TestTier0ParitySeeded: an ECO-seeded re-analysis with tier-0 on must
// land bit-identically on the from-scratch all-Newton result of the
// edited design. A seeded run leaves tier-0 off, so seeded on and off
// are equal by construction; the bit checks keep both exact and the
// counters show the dispatcher stayed out of the seeded run.
func TestTier0ParitySeeded(t *testing.T) {
	c, calc := buildExtracted(t, 220, 16, 8, 302)
	opts := Options{Mode: Iterative, Tier0: true}
	base := runMode(t, c, calc, opts)

	a, b := firstCoupledPair(t, c)
	scalePair(c, a, b, 1.7)

	fullOff := runMode(t, c, calc, Options{Mode: Iterative})
	calc.ClearCache() // so the full tier-0 run brackets rather than probes
	fullOn := runMode(t, c, calc, opts)
	bitEqual(t, fullOff, fullOn, "full tier0 on vs off after edit")
	if fullOn.Tier0Fallbacks == 0 {
		t.Error("full run with Tier0 on made no tier-0 dispatch; the seeded counter check is vacuous")
	}

	seededOn := runSeeded(t, c, calc, opts, base, []netlist.NetID{a, b})
	bitEqual(t, fullOff, seededOn, "seeded tier0 on vs full all-Newton")
	seededOff := runSeeded(t, c, calc, Options{Mode: Iterative}, base, []netlist.NetID{a, b})
	bitEqual(t, seededOff, seededOn, "seeded tier0 on vs seeded off")
	if seededOn.Tier0Hits != 0 || seededOn.Tier0Fallbacks != 0 || seededOn.Tier0FlipGuards != 0 {
		t.Errorf("seeded run with Tier0 on dispatched through tier-0: hits %d, fallbacks %d, flip guards %d",
			seededOn.Tier0Hits, seededOn.Tier0Fallbacks, seededOn.Tier0FlipGuards)
	}
}

// TestTier0MarginSweepParity: the margin gate is pure dispatch policy,
// so parity holds for any margin — including ~0 (prune maximally) and
// a margin so wide nothing ever prunes. The margin is a constant; the
// sweep overrides the session's copy before Run. Each tiered run starts
// on a cleared cache, so the gate sees every candidate.
func TestTier0MarginSweepParity(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 303)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	margins := []float64{1e-9, tier0Margin, 0.5, 0.999}
	fallbacks := make([]int64, len(margins))
	for i, margin := range margins {
		calc.ClearCache()
		eng, err := NewEngine(c, calc, Options{Mode: Iterative, Tier0: true})
		if err != nil {
			t.Fatal(err)
		}
		eng.tier0Margin = margin
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, ref, got, fmt.Sprintf("margin %g", margin))
		fallbacks[i] = got.Tier0Fallbacks
	}
	// The override must reach the gate: the widest margin dispatches
	// more near-critical arcs exactly than the narrowest.
	if fallbacks[len(fallbacks)-1] <= fallbacks[0] {
		t.Errorf("tier-0 fallbacks per margin %v: the margin override did not reach the gate", fallbacks)
	}
}

// TestTier0ParallelParity: the tier-0 decisions (dominance, elision,
// memo, frontier) are all order-independent, so a parallel sweep with
// tier-0 on matches the sequential all-Newton run bit-for-bit.
func TestTier0ParallelParity(t *testing.T) {
	c, calc := buildExtracted(t, 240, 18, 9, 305)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	for _, w := range []int{2, 4, 8} {
		got := runMode(t, c, calc, Options{Mode: Iterative, Tier0: true, Workers: w})
		bitEqual(t, ref, got, fmt.Sprintf("parallel w=%d", w))
	}
}

// TestTier0BoundsMemoExact: t0Gate reuses a slot's stored bracket when
// the input slew repeats bit for bit. That is exact only because
// t0ArcBounds is a pure function of the snapshot, the mode class, the
// slot and the slew, so after a run every filled slot must hold exactly
// what a fresh t0ArcBounds computes at the slot's stored slew — and
// that slew must be the one the pin's input carries in the final state
// (a line the last pass skipped kept the inputs it was last gated on).
func TestTier0BoundsMemoExact(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 306)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative, Tier0: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier0Rerun || eng.t0 == nil {
		t.Fatal("tier-0 did not run to completion")
	}
	fields := func(b arcBounds) [8]float64 {
		return [8]float64{b.delayLo, b.delayHi, b.slewLo, b.slewHi, b.compLo, b.compHi, b.ttrLo, b.ttrHi}
	}
	st := res.Replay.passes[len(res.Replay.passes)-1]
	filled, bounded := 0, 0
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF || cell.Out == netlist.NoNet {
			continue
		}
		for pin, in := range cell.In {
			for dOut := 0; dOut < 2; dOut++ {
				slot := &eng.t0.memo[eng.arcSlot(cell.Out, pin, dOut)]
				if !slot.bSet {
					continue
				}
				filled++
				if inSlew := st[in-1].slew[1-dOut]; inSlew > 0 && math.Float64bits(inSlew) != math.Float64bits(slot.bSlew) {
					t.Errorf("%s pin %d dir %d: bracket stored at slew %g, final input slew %g",
						cell.Name, pin, dOut, slot.bSlew, inSlew)
				}
				b, ok := eng.t0ArcBounds(Iterative, cell, pin, dOut, slot.bSlew)
				if ok != slot.bok {
					t.Errorf("%s pin %d dir %d: stored ok=%v, fresh ok=%v", cell.Name, pin, dOut, slot.bok, ok)
					continue
				}
				if !ok {
					continue
				}
				bounded++
				want, got := fields(b), fields(slot.b)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s pin %d dir %d: stored bracket %v, fresh %v", cell.Name, pin, dOut, got, want)
						break
					}
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatalf("%d filled slots, none bounded; the check is vacuous", filled)
	}
	t.Logf("%d filled bracket slots, %d bounded", filled, bounded)
}

// TestTier0EvalKeepsBracket: t0Eval fills a memo slot's request and
// result only, so every slot t0Gate bracketed and t0Eval then evaluated
// still holds its bracket after the run, for the next pass to reuse.
func TestTier0EvalKeepsBracket(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 306)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative, Tier0: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier0Rerun || eng.t0 == nil {
		t.Fatal("tier-0 did not run to completion")
	}
	evaluated, lost := 0, 0
	for i := range eng.t0.memo {
		slot := &eng.t0.memo[i]
		if !slot.valid {
			continue
		}
		evaluated++
		if !slot.bSet {
			lost++
		}
	}
	if evaluated == 0 {
		t.Fatal("no memo slot was evaluated; the check is vacuous")
	}
	if lost > 0 {
		t.Errorf("%d of %d evaluated memo slots lost their bracket", lost, evaluated)
	}
}

// countBounds is a calculator that counts the brackets an analysis asks
// for; its cache probe is the embedded Calculator's.
type countBounds struct {
	*delaycalc.Calculator
	calls *atomic.Int64
}

func (b countBounds) Tier0Bounds(r delaycalc.Request) (delaycalc.Bounds, bool) {
	b.calls.Add(1)
	return b.Calculator.Tier0Bounds(r)
}

// TestTier0WarmProbe: on one snapshot whose calculator an all-Newton
// run has filled, a tier-0 session answers every candidate from the
// cache probe. At Workers 1 and 2 it is bit-equal to all-Newton, runs
// no simulation, asks for no bracket and reports the same work. The
// snapshot's frontier memo is filled first, by a cold tier-0 run, as
// the cold fill of a warm workload fills it.
func TestTier0WarmProbe(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 307)
	opts := Options{Mode: Iterative, Tier0: true}
	cd, err := Compile(c, calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	session := func(ev delaycalc.InfoEvaluator, o Options) *Result {
		t.Helper()
		eng, err := NewSession(cd, ev, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := session(calc, opts)
	if cold.Tier0Exact != 0 || cold.Tier0Fallbacks == 0 {
		t.Fatalf("cold tier-0 run: %d exact, %d fallbacks; want 0 exact and some fallbacks", cold.Tier0Exact, cold.Tier0Fallbacks)
	}
	ref := session(calc, Options{Mode: Iterative})
	bitEqual(t, ref, cold, "cold tier-0")
	type work struct {
		arcs, sims, hits, t0Hits, t0Fallbacks, t0Flips, t0Exact int64
		passes                                                  []PassStat
	}
	var works []work
	for _, w := range []int{1, 2} {
		var bounds atomic.Int64
		o := opts
		o.Workers = w
		got := session(countBounds{calc, &bounds}, o)
		ctx := fmt.Sprintf("warm w=%d", w)
		bitEqual(t, ref, got, ctx)
		if got.Simulations != 0 {
			t.Errorf("%s: %d simulations on a filled cache", ctx, got.Simulations)
		}
		if n := bounds.Load(); n != 0 {
			t.Errorf("%s: %d Tier0Bounds calls, want 0", ctx, n)
		}
		if got.Tier0Exact == 0 || got.Tier0Fallbacks != 0 {
			t.Errorf("%s: %d exact, %d fallbacks; want every candidate answered by the probe", ctx, got.Tier0Exact, got.Tier0Fallbacks)
		}
		ps := slices.Clone(got.PassStats)
		for i := range ps {
			ps[i].Wall = 0
		}
		works = append(works, work{got.ArcEvaluations, got.Simulations, got.CacheHits,
			got.Tier0Hits, got.Tier0Fallbacks, got.Tier0FlipGuards, got.Tier0Exact, ps})
	}
	if !reflect.DeepEqual(works[0], works[1]) {
		t.Errorf("work differs by worker count:\n w=1 %+v\n w=2 %+v", works[0], works[1])
	}
	t.Logf("warm: %d arc evaluations, %d exact, %d tier-0 hits", works[0].arcs, works[0].t0Exact, works[0].t0Hits)
}

// TestTier0ConcurrentSessions: tiered sessions that run at once on one
// snapshot share its frontier memo (the first to need it computes it)
// and one calculator, which they fill while the others probe it at
// their own horizons. Each is bit-equal to all-Newton.
func TestTier0ConcurrentSessions(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 308)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	opts := Options{Mode: Iterative, Tier0: true}
	cd, err := Compile(c, calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	calc.ClearCache()
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Workers = 1 + i%2
			eng, err := NewSession(cd, calc, o)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = eng.Run()
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		bitEqual(t, ref, res, fmt.Sprintf("session %d", i))
	}
}

// narrowBounds is a calculator whose tier-0 brackets collapse to their
// midpoints, so no evaluated arc lands inside its bracket and the
// audit must fire. calls counts the brackets an analysis asks for.
type narrowBounds struct {
	*delaycalc.Calculator
	calls *atomic.Int64
}

func (n narrowBounds) Tier0Bounds(r delaycalc.Request) (delaycalc.Bounds, bool) {
	n.calls.Add(1)
	b, ok := n.Calculator.Tier0Bounds(r)
	for _, p := range [][2]*float64{
		{&b.DelayLo, &b.DelayHi}, {&b.SlewLo, &b.SlewHi},
		{&b.TTRLo, &b.TTRHi}, {&b.CompletionLo, &b.CompletionHi},
	} {
		mid := (*p[0] + *p[1]) / 2
		*p[0], *p[1] = mid, mid
	}
	return b, ok
}

// TestTier0RerunOnBracketViolation: a violated bracket discards the
// tiered full run and recomputes all-Newton — bit-identical to the
// all-Newton run — and says so on the Result, in the metrics and in
// the analysis event. A seeded run under the same evaluator never
// brackets an arc (tier-0 stays off), so it has nothing to rerun. The
// full run starts on a cleared cache, so its probes answer nothing and
// its candidates are bracketed.
func TestTier0RerunOnBracketViolation(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 306)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	if ref.Tier0Rerun {
		t.Fatal("all-Newton run reports a tier-0 rerun")
	}
	calc.ClearCache()
	reg := obs.NewRegistry()
	var events bytes.Buffer
	var bounds atomic.Int64
	opts := Options{Mode: Iterative, Tier0: true, Metrics: reg, Events: obs.NewEventLog(&events)}
	newEngine := func() *Engine {
		eng, err := NewEngine(c, narrowBounds{calc, &bounds}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	reruns := func() int64 { return reg.Counter(obs.MTier0Reruns).Value() }

	full, err := newEngine().Run()
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, ref, full, "full")
	if !full.Tier0Rerun {
		t.Error("full: Tier0Rerun not set")
	}
	if full.Tier0Hits != 0 {
		t.Errorf("full: Tier0Hits = %d after the all-Newton rerun", full.Tier0Hits)
	}
	if bounds.Load() == 0 {
		t.Error("full: no Tier0Bounds calls counted; the seeded check below would be vacuous")
	}
	if n := reruns(); n != 1 {
		t.Errorf("full: %s = %d, want 1", obs.MTier0Reruns, n)
	}
	// The documented rerun accounting: the work totals include the
	// discarded tiered run, whose passes are not in PassStats.
	var passArcs int64
	for _, ps := range full.PassStats {
		passArcs += ps.ArcEvaluations
	}
	if full.ArcEvaluations <= passArcs {
		t.Errorf("full: ArcEvaluations %d does not exceed the reported passes' %d; the discarded run is missing",
			full.ArcEvaluations, passArcs)
	}
	if n := reg.Counter(obs.MArcEvaluations).Value(); n != full.ArcEvaluations {
		t.Errorf("full: %s = %d, Result.ArcEvaluations = %d", obs.MArcEvaluations, n, full.ArcEvaluations)
	}

	// The pair is not edited, so nothing diverges: seed its whole
	// structural fan-out to make the seeded run evaluate arcs.
	eng := newEngine()
	a, b := firstCoupledPair(t, c)
	mask := make([]bool, len(c.Nets))
	queue := []netlist.NetID{a, b}
	mask[a-1], mask[b-1] = true, true
	for len(queue) > 0 {
		net := queue[0]
		queue = queue[1:]
		eng.forFanout(net, func(id netlist.NetID) {
			if !mask[id-1] {
				mask[id-1] = true
				queue = append(queue, id)
			}
		})
	}
	bounds.Store(0)
	seeded, err := eng.RunSeeded(ref.Replay, mask)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, ref, seeded, "seeded")
	if seeded.ArcEvaluations == 0 {
		t.Error("seeded: no arcs evaluated; the check is vacuous")
	}
	if n := bounds.Load(); n != 0 {
		t.Errorf("seeded: %d Tier0Bounds calls, want 0", n)
	}
	if seeded.Tier0Rerun || seeded.Tier0Hits != 0 || seeded.Tier0Fallbacks != 0 || seeded.Tier0FlipGuards != 0 {
		t.Errorf("seeded: tier-0 ran: rerun %v, hits %d, fallbacks %d, flip guards %d",
			seeded.Tier0Rerun, seeded.Tier0Hits, seeded.Tier0Fallbacks, seeded.Tier0FlipGuards)
	}
	if n := reruns(); n != 1 {
		t.Errorf("seeded: %s = %d, want it to stay 1", obs.MTier0Reruns, n)
	}
	if n := strings.Count(events.String(), `"tier0_rerun":true`); n != 1 {
		t.Errorf("event log carries %d tier0_rerun records, want 1:\n%s", n, events.String())
	}
}
