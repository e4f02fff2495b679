package layout

import (
	"math"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
)

func flatPinCap(netlist.PinRef) float64 { return 5e-15 }

func buildSmall(t *testing.T) (*netlist.Circuit, *Layout) {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{
		Seed: 11, Cells: 250, DFFs: 20, PIs: 6, POs: 6, Depth: 8, ClockFanout: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	l, err := Build(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, l
}

func TestPlacementCoversAllCells(t *testing.T) {
	c, l := buildSmall(t)
	if len(l.CellPos) != len(c.Cells) {
		t.Errorf("placed %d of %d cells", len(l.CellPos), len(c.Cells))
	}
	for cid, p := range l.CellPos {
		if p.X < 0 || p.Y < 0 || p.X > l.DieW || p.Y > l.DieH {
			t.Errorf("cell %d at %+v outside die %g x %g", cid, p, l.DieW, l.DieH)
		}
	}
	if l.DieW <= 0 || l.DieH <= 0 {
		t.Error("degenerate die")
	}
	// Roughly square die.
	ratio := l.DieW / l.DieH
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("die aspect ratio %v far from square", ratio)
	}
}

func TestNoCellOverlapsInRow(t *testing.T) {
	c, l := buildSmall(t)
	type span struct{ lo, hi float64 }
	rows := make(map[int][]span)
	for cid, p := range l.CellPos {
		cell := c.Cell(netlist.CellID(cid))
		w := baseCellWidth + float64(len(cell.In))*widthPerPin
		row := int(math.Round(p.Y / rowHeight))
		rows[row] = append(rows[row], span{p.X, p.X + w})
	}
	for row, spans := range rows {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.lo < b.hi-1e-12 && b.lo < a.hi-1e-12 {
					t.Fatalf("row %d: overlapping cells [%g,%g] and [%g,%g]", row, a.lo, a.hi, b.lo, b.hi)
				}
			}
		}
	}
}

func TestEveryLoadedNetRouted(t *testing.T) {
	c, l := buildSmall(t)
	for _, n := range c.Nets {
		if len(n.Fanout) == 0 && !n.IsPO {
			continue
		}
		nt := l.Tree(n.ID)
		if nt == nil {
			t.Errorf("net %s not routed", n.Name)
			continue
		}
		if len(n.Fanout) > 0 && nt.WireLen <= 0 {
			t.Errorf("net %s has zero wirelength", n.Name)
		}
		for _, pr := range n.Fanout {
			if _, ok := nt.SinkNodeOf(pr); !ok {
				t.Errorf("net %s missing sink node for %+v", n.Name, pr)
			}
		}
	}
}

func TestExtractionAnnotatesNets(t *testing.T) {
	c, l := buildSmall(t)
	proc := device.Generic05um()
	if err := l.Extract(proc, flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	routed, withCoupling, withDelay := 0, 0, 0
	for _, n := range c.Nets {
		if len(n.Fanout) == 0 && !n.IsPO {
			continue
		}
		routed++
		if n.Par.CWire <= 0 {
			t.Errorf("net %s: no wire cap", n.Name)
		}
		if len(n.Par.Couplings) > 0 {
			withCoupling++
		}
		ok := true
		for _, pr := range n.Fanout {
			d, found := n.Par.SinkWireDelay[pr]
			if !found || d < 0 {
				ok = false
			}
		}
		if ok && len(n.Fanout) > 0 {
			withDelay++
		}
	}
	if withCoupling < routed/4 {
		t.Errorf("only %d of %d nets have coupling — extraction too sparse for the experiments", withCoupling, routed)
	}
	if withDelay == 0 {
		t.Error("no sink wire delays computed")
	}
}

func TestCouplingSymmetric(t *testing.T) {
	c, l := buildSmall(t)
	proc := device.Generic05um()
	if err := l.Extract(proc, flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			other := c.Net(cp.Other)
			found := false
			for _, back := range other.Par.Couplings {
				if back.Other == n.ID && math.Abs(back.C-cp.C) < 1e-21 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("coupling %s->%s (%g) not mirrored", n.Name, other.Name, cp.C)
			}
		}
	}
}

func TestNoSelfCoupling(t *testing.T) {
	c, l := buildSmall(t)
	if err := l.Extract(device.Generic05um(), flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			if cp.Other == n.ID {
				t.Fatalf("net %s couples to itself", n.Name)
			}
		}
	}
}

func TestCouplingMagnitudePlausible(t *testing.T) {
	// In a 0.5µm minimum-pitch process the coupling share of total net
	// capacitance should be substantial (tens of percent) — that is the
	// paper's premise.
	c, l := buildSmall(t)
	if err := l.Extract(device.Generic05um(), flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	totalGnd, totalCpl := 0.0, 0.0
	for _, n := range c.Nets {
		totalGnd += n.Par.CWire
		totalCpl += n.Par.TotalCoupling()
	}
	if totalCpl <= 0 {
		t.Fatal("no coupling extracted at all")
	}
	frac := totalCpl / (totalGnd + totalCpl)
	if frac < 0.05 || frac > 0.9 {
		t.Errorf("coupling fraction of wire cap = %v, implausible for min-pitch 0.5um", frac)
	}
}

func TestSameTrackOverlapsOnlyFromFallback(t *testing.T) {
	// Under congestion the router deliberately stacks segments on a
	// track (standing in for extra layers) and counts the fallbacks.
	// Without congestion (generous search), M1 must be short-free.
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 11, Cells: 60, DFFs: 5, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	l, err := Build(c, Options{maxTrackSearch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if l.TrunkFallbacks != 0 {
		t.Fatalf("tiny circuit with huge search still hit %d fallbacks", l.TrunkFallbacks)
	}
	byTrack := make(map[int][]seg)
	for _, s := range l.hsegs {
		byTrack[s.track] = append(byTrack[s.track], s)
	}
	for track, lst := range byTrack {
		for i := range lst {
			for j := i + 1; j < len(lst); j++ {
				a, b := lst[i], lst[j]
				if a.net == b.net {
					continue
				}
				if a.lo < b.hi-1e-12 && b.lo < a.hi-1e-12 {
					t.Errorf("M1 track %d: nets %d and %d short without any fallback", track, a.net, b.net)
				}
			}
		}
	}
}

func TestCouplingShieldingBudget(t *testing.T) {
	// After extraction no net may carry more coupling than two fully
	// occupied sidewalls of its own wirelength.
	c, l := buildSmall(t)
	proc := device.Generic05um()
	if err := l.Extract(proc, flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nets {
		nt := l.Tree(n.ID)
		if nt == nil {
			continue
		}
		budget := 2 * nt.WireLen * proc.CcouplePerLen
		if tot := n.Par.TotalCoupling(); tot > budget*1.001 {
			t.Errorf("net %s coupling %g F exceeds physical budget %g F (wirelen %g)",
				n.Name, tot, budget, nt.WireLen)
		}
	}
}

func TestAdjacentOverlapsMath(t *testing.T) {
	segs := []seg{
		{net: 1, track: 0, lo: 0, hi: 10e-6},
		{net: 2, track: 1, lo: 4e-6, hi: 20e-6},
		{net: 3, track: 2, lo: 0, hi: 3e-6},
		{net: 4, track: 5, lo: 0, hi: 10e-6}, // isolated
	}
	ov := make(map[couplingKey]float64)
	adjacentOverlaps(segs, 2e-6, ov)
	if got := ov[orderedKey(1, 2)]; math.Abs(got-6e-6) > 1e-12 {
		t.Errorf("overlap(1,2) = %v, want 6µm", got)
	}
	if got := ov[orderedKey(2, 3)]; got != 0 {
		t.Errorf("overlap(2,3) = %v, want 0 (below threshold: 3-4 = none)", got)
	}
	if len(ov) != 1 {
		t.Errorf("unexpected overlaps: %v", ov)
	}
	// Same net on adjacent tracks: no self coupling.
	segs2 := []seg{
		{net: 7, track: 0, lo: 0, hi: 10e-6},
		{net: 7, track: 1, lo: 0, hi: 10e-6},
	}
	ov2 := make(map[couplingKey]float64)
	adjacentOverlaps(segs2, 2e-6, ov2)
	if len(ov2) != 0 {
		t.Errorf("self coupling reported: %v", ov2)
	}
}

func TestClockNetRouted(t *testing.T) {
	c, l := buildSmall(t)
	if c.ClockRoot == netlist.NoNet {
		t.Fatal("no clock root in generated circuit")
	}
	// Every clock leaf net (driving DFF clock pins) must have sink
	// nodes for those pins.
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF || cell.Clock == netlist.NoNet {
			continue
		}
		nt := l.Tree(cell.Clock)
		if nt == nil {
			t.Fatalf("clock net %s unrouted", c.Net(cell.Clock).Name)
		}
		pr := netlist.PinRef{Cell: cell.ID, Pin: ClockPin()}
		if _, ok := nt.SinkNodeOf(pr); !ok {
			t.Errorf("clock pin of %s missing from tree", cell.Name)
		}
	}
}

func TestBuildEmptyCircuitErrors(t *testing.T) {
	c := netlist.New("empty")
	if _, err := Build(c, Options{}); err == nil {
		t.Error("empty circuit must error")
	}
}

func TestWirelengthStats(t *testing.T) {
	_, l := buildSmall(t)
	total, max := l.WirelengthStats()
	if total <= 0 || max <= 0 || max > total {
		t.Errorf("wirelength stats: total=%v max=%v", total, max)
	}
}

func TestDeterministicLayout(t *testing.T) {
	build := func() (*netlist.Circuit, *Layout) {
		c, err := circuitgen.Generate(circuitgen.Params{Seed: 21, Cells: 150, DFFs: 10, Depth: 6})
		if err != nil {
			t.Fatal(err)
		}
		if err := netlist.Lower(c); err != nil {
			t.Fatal(err)
		}
		l, err := Build(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c, l
	}
	c1, l1 := build()
	_, l2 := build()
	if err := l1.Extract(device.Generic05um(), flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	if err := l2.Extract(device.Generic05um(), flatPinCap, 20e-15); err != nil {
		t.Fatal(err)
	}
	c2 := l2.Circuit
	for i, n1 := range c1.Nets {
		n2 := c2.Nets[i]
		if math.Abs(n1.Par.CWire-n2.Par.CWire) > 1e-21 || len(n1.Par.Couplings) != len(n2.Par.Couplings) {
			t.Fatalf("net %s parasitics not deterministic", n1.Name)
		}
	}
}

func BenchmarkBuildAndExtract1k(b *testing.B) {
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 31, Cells: 1000, DFFs: 80, Depth: 12, ClockFanout: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		b.Fatal(err)
	}
	proc := device.Generic05um()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Build(c, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Extract(proc, flatPinCap, 20e-15); err != nil {
			b.Fatal(err)
		}
	}
}
