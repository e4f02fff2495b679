package core

import (
	"math"
	"strings"
	"testing"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// bitEqual asserts that two results carry bit-identical final timing
// state — the exactness contract of a seeded run.
func bitEqual(t *testing.T, want, got *Result, ctx string) {
	t.Helper()
	if math.Float64bits(want.LongestPath) != math.Float64bits(got.LongestPath) {
		t.Fatalf("%s: longest path %.17g != %.17g", ctx, got.LongestPath, want.LongestPath)
	}
	if want.Passes != got.Passes {
		t.Fatalf("%s: passes %d != %d", ctx, got.Passes, want.Passes)
	}
	if want.Replay == nil || got.Replay == nil {
		t.Fatalf("%s: missing replay state (want %v, got %v)", ctx, want.Replay != nil, got.Replay != nil)
	}
	pairs := []struct {
		name        string
		wantV, gotV [][2]float64
	}{
		{"arrival", want.Replay.FinalArrivals(), got.Replay.FinalArrivals()},
		{"slew", want.Replay.FinalSlews(), got.Replay.FinalSlews()},
		{"quiet", want.Replay.FinalQuiets(), got.Replay.FinalQuiets()},
	}
	for _, p := range pairs {
		if len(p.wantV) != len(p.gotV) {
			t.Fatalf("%s: %s length %d != %d", ctx, p.name, len(p.gotV), len(p.wantV))
		}
		for i := range p.wantV {
			for d := 0; d < 2; d++ {
				if math.Float64bits(p.wantV[i][d]) != math.Float64bits(p.gotV[i][d]) {
					t.Fatalf("%s: net %d dir %d %s %.17g != %.17g",
						ctx, i+1, d, p.name, p.gotV[i][d], p.wantV[i][d])
				}
			}
		}
	}
}

// firstCoupledPair returns a coupled net pair where at least one side
// is cell-driven — a coupling between two primary inputs is electrically
// inert (PI arrivals are fixed), so editing it dirties nothing.
func firstCoupledPair(t *testing.T, c *netlist.Circuit) (netlist.NetID, netlist.NetID) {
	t.Helper()
	for _, nn := range c.Nets {
		if nn.Driver == netlist.NoCell {
			continue
		}
		if len(nn.Par.Couplings) > 0 {
			return nn.ID, nn.Par.Couplings[0].Other
		}
	}
	t.Fatal("circuit has no coupled cell-driven nets")
	return 0, 0
}

// scalePair multiplies the coupling between a and b on both sides.
func scalePair(c *netlist.Circuit, a, b netlist.NetID, f float64) {
	for _, pair := range [][2]netlist.NetID{{a, b}, {b, a}} {
		par := &c.Net(pair[0]).Par
		for i := range par.Couplings {
			if par.Couplings[i].Other == pair[1] {
				par.Couplings[i].C *= f
			}
		}
	}
}

// runSeeded runs a seeded analysis against prev with the given dirty
// nets.
func runSeeded(t *testing.T, c *netlist.Circuit, calc *delaycalc.Calculator, opts Options, prev *Result, seeds []netlist.NetID) *Result {
	t.Helper()
	eng, err := NewEngine(c, calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(c.Nets))
	for _, id := range seeds {
		mask[id-1] = true
	}
	res, err := eng.RunSeeded(prev.Replay, mask)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSeededNoEditIdentity: seeding arbitrary nets WITHOUT changing the
// design must reproduce the full run bit-for-bit in every mode — the
// seeds recompute from identical inputs.
func TestSeededNoEditIdentity(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 41)
	a, b := firstCoupledPair(t, c)
	for _, mode := range []Mode{BestCase, StaticDoubled, WorstCase, OneStep, Iterative} {
		opts := Options{Mode: mode}
		full := runMode(t, c, calc, opts)
		seeded := runSeeded(t, c, calc, opts, full, []netlist.NetID{a, b})
		bitEqual(t, full, seeded, mode.String())
		if seeded.ECO == nil || seeded.ECO.ReusedLines == 0 {
			t.Fatalf("%s: expected reused lines, got %+v", mode, seeded.ECO)
		}
	}
}

// TestSeededCouplingEditExactness: scale one coupling cap, seed the
// pair, and require bit-identity with a from-scratch run of the edited
// circuit — in all five modes, sequentially and with workers.
func TestSeededCouplingEditExactness(t *testing.T) {
	for _, workers := range []int{0, 4} {
		c, calc := buildExtracted(t, 160, 12, 8, 42)
		a, b := firstCoupledPair(t, c)
		for i, mode := range []Mode{BestCase, StaticDoubled, WorstCase, OneStep, Iterative} {
			opts := Options{Mode: mode, Workers: workers}
			before := runMode(t, c, calc, opts)
			scalePair(c, a, b, 1.5+0.5*float64(i))
			seeded := runSeeded(t, c, calc, opts, before, []netlist.NetID{a, b})
			full := runMode(t, c, calc, opts)
			bitEqual(t, full, seeded, mode.String())
			if seeded.ECO.DirtyLines == 0 {
				t.Fatalf("%s: edit produced no dirty lines", mode)
			}
		}
	}
}

// TestSeededUnseedableTopologyFallsBack: a flip-flop clocked by a
// driven net that is not marked as a clock (a .bench @dffclock naming a
// gated net) reads a main-phase net at launch, which a seeded run cannot
// reproduce, so the seeded path must fall back to a full run — and
// still be exact.
func TestSeededUnseedableTopologyFallsBack(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 44)
	cleared := false
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			if n := c.Net(cell.Clock); n.IsClock && n.Driver != netlist.NoCell {
				n.IsClock = false
				cleared = true
				break
			}
		}
	}
	if !cleared {
		t.Fatal("no flip-flop is clocked by a buffered clock net")
	}
	a, b := firstCoupledPair(t, c)
	reg := obs.NewRegistry()
	opts := Options{Mode: Iterative, Metrics: reg}
	before := runMode(t, c, calc, opts)
	scalePair(c, a, b, 1.75)
	seeded := runSeeded(t, c, calc, opts, before, []netlist.NetID{a, b})
	full := runMode(t, c, calc, opts)
	if seeded.ECO == nil || !seeded.ECO.FullFallback {
		t.Fatalf("expected full fallback, got %+v", seeded.ECO)
	}
	if got := reg.Counter(obs.MEcoFullFallbacks).Value(); got == 0 {
		t.Fatalf("eco_full_fallbacks_total = 0, want > 0")
	}
	bitEqual(t, full, seeded, "unseedable topology")
}

// TestSeededInputSlewExactness: a changed PI slew (the net's InputSlew)
// must dirty the PI's cone and stay exact.
func TestSeededInputSlewExactness(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 45)
	pi := c.PIs[0]
	opts := Options{Mode: Iterative}
	before := runMode(t, c, calc, opts)
	c.Net(pi).InputSlew = 150e-12
	seeded := runSeeded(t, c, calc, opts, before, []netlist.NetID{pi})
	full := runMode(t, c, calc, opts)
	bitEqual(t, full, seeded, "pi slew")
}

// TestReplayOwnsBestCaseSlab: a replay keeps the best-case slab its run
// filled, and no later run writes it. Two runs of one session hand
// their replays distinct slabs, and a seeded run from a replay, with
// seeds whose arcs own filled slots, leaves that replay's slab bit for
// bit as it was and keeps a slab of its own.
func TestReplayOwnsBestCaseSlab(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 47)
	opts := Options{Mode: Iterative}
	eng, err := NewEngine(c, calc, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	slab := first.Replay.bcs
	if len(slab) == 0 || &slab[0] == &second.Replay.bcs[0] {
		t.Fatal("two runs of one session hand their replays the same best-case slab")
	}

	// Seed a coupled pair whose first net owns a filled slot.
	var a, b netlist.NetID
	for _, n := range c.Nets {
		if len(n.Par.Couplings) == 0 {
			continue
		}
		for _, s := range slab[eng.arcOff[n.ID-1]:eng.arcOff[n.ID]] {
			if s.valid {
				a, b = n.ID, n.Par.Couplings[0].Other
			}
		}
		if a != netlist.NoNet {
			break
		}
	}
	if a == netlist.NoNet {
		t.Fatal("no coupled net owns a filled best-case slot; the check is vacuous")
	}
	bits := func(s *bcsEntry) [7]uint64 {
		r := &s.res
		v := uint64(0)
		if s.valid {
			v = 1
		}
		return [7]uint64{math.Float64bits(s.inSlew), math.Float64bits(r.Delay), math.Float64bits(r.OutSlew),
			math.Float64bits(r.TimeToRestart), math.Float64bits(r.Completion), math.Float64bits(r.EventTime), v}
	}
	want := make([][7]uint64, len(slab))
	for i := range slab {
		want[i] = bits(&slab[i])
	}
	scalePair(c, a, b, 1.6)
	seeded := runSeeded(t, c, calc, opts, first, []netlist.NetID{a, b})
	if &seeded.Replay.bcs[0] == &slab[0] {
		t.Fatal("the seeded run's replay holds its base replay's slab")
	}
	for i := range slab {
		if bits(&slab[i]) != want[i] {
			t.Fatalf("seeded run changed slot %d of its base replay's slab", i)
		}
	}
}

// TestRunSeededValidation: malformed seeds are rejected up front.
func TestRunSeededValidation(t *testing.T) {
	c, calc := buildExtracted(t, 100, 8, 6, 46)
	full := runMode(t, c, calc, Options{Mode: OneStep})
	eng, err := NewEngine(c, calc, Options{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSeeded(nil, make([]bool, len(c.Nets))); err == nil {
		t.Fatal("nil replay state accepted")
	}
	if _, err := eng.RunSeeded(full.Replay, make([]bool, 3)); err == nil {
		t.Fatal("wrong-length seed mask accepted")
	}
	other, err := NewEngine(c, calc, Options{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunSeeded(full.Replay, make([]bool, len(c.Nets))); err == nil {
		t.Fatal("mode mismatch accepted")
	} else if !strings.Contains(err.Error(), "mode") {
		t.Fatalf("unexpected mode-mismatch error: %v", err)
	}
}
