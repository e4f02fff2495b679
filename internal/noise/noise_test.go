package noise

import (
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

func setup(t *testing.T) (*netlist.Circuit, device.Process, ccc.Sizing, *device.Library) {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 71, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	p := device.Generic05um()
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	return c, p, siz, device.NewLibrary(p, 65)
}

func TestAnalyzeProducesSortedReport(t *testing.T) {
	c, p, siz, lib := setup(t)
	rep, err := Analyze(c, p, siz, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nets) == 0 {
		t.Fatal("no noisy nets found on a routed circuit")
	}
	for i := 1; i < len(rep.Nets); i++ {
		if rep.Nets[i].Peak > rep.Nets[i-1].Peak {
			t.Fatal("report not sorted by peak")
		}
	}
	for _, n := range rep.Nets {
		if n.Peak < 0 || n.Peak > p.VDD {
			t.Errorf("net %s: peak %v outside [0, VDD]", n.Net, n.Peak)
		}
		if n.Margin != p.VtN {
			t.Errorf("margin %v != VtN", n.Margin)
		}
		if n.Failing != (n.Peak > n.Margin) {
			t.Errorf("net %s: Failing flag inconsistent", n.Net)
		}
	}
}

func TestInstantaneousStepIsWorst(t *testing.T) {
	c, p, siz, lib := setup(t)
	shielded, err := Analyze(c, p, siz, lib, Options{AggSlew: 100e-12})
	if err != nil {
		t.Fatal(err)
	}
	unshielded, err := Analyze(c, p, siz, lib, Options{AggSlew: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(shielded.Nets) != len(unshielded.Nets) {
		t.Fatal("net counts differ")
	}
	byName := map[string]float64{}
	for _, n := range unshielded.Nets {
		byName[n.Net] = n.Peak
	}
	for _, n := range shielded.Nets {
		if n.Peak > byName[n.Net]+1e-12 {
			t.Errorf("net %s: shielded peak %v exceeds unshielded %v", n.Net, n.Peak, byName[n.Net])
		}
	}
}

func TestRender(t *testing.T) {
	c, p, siz, lib := setup(t)
	rep, err := Analyze(c, p, siz, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Render(&sb, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Victim") {
		t.Error("render missing header")
	}
}

func TestFailingSubset(t *testing.T) {
	c, p, siz, lib := setup(t)
	rep, err := Analyze(c, p, siz, lib, Options{AggSlew: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failing() {
		if !f.Failing {
			t.Error("Failing() returned non-failing net")
		}
	}
}

// TestResizeMovesGlitch: a victim's glitch depends on its driver's
// strength, so upsizing the driver of a clock net and of a data net
// must lower both peaks (a stronger driver holds its net harder and
// adds drain capacitance to the divider).
func TestResizeMovesGlitch(t *testing.T) {
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 13, Cells: 160, DFFs: 12, Depth: 8, ClockFanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	p := device.Generic05um()
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	lib := device.NewLibrary(p, 65)
	victims := []string{"CLKB0", "N41"}
	peaks := func() map[string]float64 {
		t.Helper()
		rep, err := Analyze(c, p, siz, lib, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, n := range rep.Nets {
			out[n.Net] = n.Peak
		}
		return out
	}
	before := peaks()
	for _, name := range victims {
		n, ok := c.NetByName(name)
		if !ok {
			t.Fatalf("net %s not found", name)
		}
		if _, ok := before[name]; !ok {
			t.Fatalf("net %s has no glitch estimate", name)
		}
		c.Cell(n.Driver).Size = 4
	}
	after := peaks()
	for _, name := range victims {
		if !(after[name] < before[name]) {
			t.Errorf("%s: peak %.6f V after resizing its driver ×4, %.6f V before; want lower", name, after[name], before[name])
		}
	}
}
