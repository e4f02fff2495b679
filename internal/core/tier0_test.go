package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
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
func TestTier0ParityAllModes(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 301)
	for _, m := range Modes() {
		off := runMode(t, c, calc, Options{Mode: m})
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
// edited design — the two exactness mechanisms (replay seeding and
// tiered dispatch) compose.
func TestTier0ParitySeeded(t *testing.T) {
	c, calc := buildExtracted(t, 220, 16, 8, 302)
	opts := Options{Mode: Iterative, Tier0: true}
	base := runMode(t, c, calc, opts)

	a, b := firstCoupledPair(t, c)
	scalePair(c, a, b, 1.7)

	fullOff := runMode(t, c, calc, Options{Mode: Iterative})
	fullOn := runMode(t, c, calc, opts)
	bitEqual(t, fullOff, fullOn, "full tier0 on vs off after edit")

	seededOn := runSeeded(t, c, calc, opts, base, []netlist.NetID{a, b})
	bitEqual(t, fullOff, seededOn, "seeded tier0 on vs full all-Newton")
	seededOff := runSeeded(t, c, calc, Options{Mode: Iterative}, base, []netlist.NetID{a, b})
	bitEqual(t, seededOff, seededOn, "seeded tier0 on vs seeded off")
}

// TestTier0MarginSweepParity: the margin gate is pure dispatch policy,
// so parity holds for any margin — including 0 (prune maximally) and
// a margin so wide nothing ever prunes.
func TestTier0MarginSweepParity(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 303)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	for _, margin := range []float64{1e-9, 0.05, 0.5, 0.999} {
		got := runMode(t, c, calc, Options{Mode: Iterative, Tier0: true, Tier0Margin: margin})
		bitEqual(t, ref, got, "margin sweep")
	}
}

// TestTier0DisabledUnderApproximateModes: Esperance and Windows rule
// tier-0 out (their skip/pruning rules read state the bracket proofs do
// not model) — the dispatcher must stay inert rather than combine.
func TestTier0DisabledUnderApproximateModes(t *testing.T) {
	c, calc := buildExtracted(t, 180, 12, 8, 304)
	for _, opts := range []Options{
		{Mode: Iterative, Tier0: true, Esperance: true},
		{Mode: Iterative, Tier0: true, Windows: true},
	} {
		res := runMode(t, c, calc, opts)
		if res.Tier0Hits != 0 || res.Tier0Fallbacks != 0 || res.Tier0FlipGuards != 0 {
			t.Errorf("esperance=%v windows=%v: tier-0 ran (%d/%d/%d) despite being gated off",
				opts.Esperance, opts.Windows, res.Tier0Hits, res.Tier0Fallbacks, res.Tier0FlipGuards)
		}
		if math.IsInf(res.LongestPath, -1) || res.LongestPath <= 0 {
			t.Errorf("esperance=%v windows=%v: no longest path", opts.Esperance, opts.Windows)
		}
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
		slots := eng.t0.memo[cell.Out-1]
		for pin, in := range cell.In {
			for dOut := 0; dOut < 2; dOut++ {
				slot := &slots[pin*2+dOut]
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

// narrowBounds is a calculator whose tier-0 brackets collapse to their
// midpoints, so no evaluated arc lands inside its bracket and the
// audit must fire.
type narrowBounds struct{ *delaycalc.Calculator }

func (n narrowBounds) Tier0Bounds(r delaycalc.Request) (delaycalc.Bounds, bool) {
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
// tiered run and recomputes all-Newton — bit-identical to the
// all-Newton run — and says so on the Result, in the metrics and in
// the analysis event, for full and seeded runs alike.
func TestTier0RerunOnBracketViolation(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 306)
	ref := runMode(t, c, calc, Options{Mode: Iterative})
	if ref.Tier0Rerun {
		t.Fatal("all-Newton run reports a tier-0 rerun")
	}
	reg := obs.NewRegistry()
	var events bytes.Buffer
	opts := Options{Mode: Iterative, Tier0: true, Metrics: reg, Events: obs.NewEventLog(&events)}
	check := func(name string, run func(*Engine) (*Result, error), want int64) {
		eng, err := NewEngine(c, narrowBounds{calc}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(eng)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, ref, got, name)
		if !got.Tier0Rerun {
			t.Errorf("%s: Tier0Rerun not set", name)
		}
		if got.Tier0Hits != 0 {
			t.Errorf("%s: Tier0Hits = %d after the all-Newton rerun", name, got.Tier0Hits)
		}
		if n := reg.Counter(obs.MTier0Reruns).Value(); n != want {
			t.Errorf("%s: %s = %d, want %d", name, obs.MTier0Reruns, n, want)
		}
	}
	check("full", (*Engine).Run, 1)
	check("seeded", func(e *Engine) (*Result, error) {
		a, b := firstCoupledPair(t, c)
		mask := make([]bool, len(c.Nets))
		mask[a-1], mask[b-1] = true, true
		return e.RunSeeded(ref.Replay, mask)
	}, 2)
	if n := strings.Count(events.String(), `"tier0_rerun":true`); n != 2 {
		t.Errorf("event log carries %d tier0_rerun records, want 2:\n%s", n, events.String())
	}
}
