package spef

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

func extracted(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 61, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4})
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
	return c
}

// cloneBare re-generates the same circuit without parasitics.
func cloneBare(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 61, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	src := extracted(t)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := cloneBare(t)
	if err := Read(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i, ns := range src.Nets {
		nd := dst.Nets[i]
		if relDiff(ns.Par.CWire, nd.Par.CWire) > 1e-5 {
			t.Fatalf("net %s CWire %v vs %v", ns.Name, ns.Par.CWire, nd.Par.CWire)
		}
		if relDiff(ns.Par.RWire, nd.Par.RWire) > 1e-5 {
			t.Fatalf("net %s RWire differs", ns.Name)
		}
		if len(ns.Par.Couplings) != len(nd.Par.Couplings) {
			t.Fatalf("net %s couplings %d vs %d", ns.Name, len(ns.Par.Couplings), len(nd.Par.Couplings))
		}
		for j, cp := range ns.Par.Couplings {
			if nd.Par.Couplings[j].Other != cp.Other || relDiff(cp.C, nd.Par.Couplings[j].C) > 1e-5 {
				t.Fatalf("net %s coupling %d differs", ns.Name, j)
			}
		}
		for pr, d := range ns.Par.SinkWireDelay {
			if relDiff(d, nd.Par.SinkWireDelay[pr]) > 1e-5 {
				t.Fatalf("net %s pin delay differs for %+v", ns.Name, pr)
			}
		}
		if relDiff(ns.Par.POWireDelay, nd.Par.POWireDelay) > 1e-5 {
			t.Fatalf("net %s PO delay differs", ns.Name)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestReadErrors(t *testing.T) {
	c := cloneBare(t)
	cases := map[string]string{
		"no header":      "*D_NET N0 1 1\n*END\n",
		"unknown net":    "*SPEF xtalksta-1\n*D_NET BOGUS 1 1\n*END\n",
		"bad number":     "*SPEF xtalksta-1\n*D_NET N0 xyz 1\n*END\n",
		"orphan pin":     "*SPEF xtalksta-1\n*PIN g0 0 1\n",
		"orphan cc":      "*SPEF xtalksta-1\n*CC N1 1\n",
		"unknown cell":   "*SPEF xtalksta-1\n*D_NET N0 1 1\n*PIN nosuchnet 0 1\n*END\n",
		"unknown dir":    "*SPEF xtalksta-1\n*FROB\n",
		"asym coupling":  "*SPEF xtalksta-1\n*D_NET N0 1 1\n*CC N1 5\n*END\n",
		"short dnet":     "*SPEF xtalksta-1\n*D_NET N0\n",
		"unknown cc net": "*SPEF xtalksta-1\n*D_NET N0 1 1\n*CC NOPE 5\n*END\n",
	}
	for name, src := range cases {
		if err := Read(strings.NewReader(src), c); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	c := cloneBare(t)
	src := "# header comment\n*SPEF xtalksta-1\n\n*DESIGN t\n# another\n*D_NET N0 2.5 10\n*END\n"
	if err := Read(strings.NewReader(src), c); err != nil {
		t.Fatal(err)
	}
	n, _ := c.NetByName("N0")
	if relDiff(n.Par.CWire, 2.5e-15) > 1e-9 {
		t.Errorf("CWire = %v", n.Par.CWire)
	}
}

func TestValidateSymmetryCatches(t *testing.T) {
	c := cloneBare(t)
	a, _ := c.NetByName("N0")
	b, _ := c.NetByName("N1")
	a.Par.Couplings = append(a.Par.Couplings, netlist.Coupling{Other: b.ID, C: 1e-15})
	if err := ValidateSymmetry(c); err == nil {
		t.Error("asymmetric coupling must be rejected")
	}
	b.Par.Couplings = append(b.Par.Couplings, netlist.Coupling{Other: a.ID, C: 1e-15})
	if err := ValidateSymmetry(c); err != nil {
		t.Errorf("symmetric coupling rejected: %v", err)
	}
}

// TestReadRejectsMalformed: malformed parasitics must fail with an error
// naming the offending line — never a panic, never a silently dropped
// or non-finite annotation.
func TestReadRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, extracted(t)); err != nil {
		t.Fatal(err)
	}
	good := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	firstPin := -1
	for i, l := range good {
		if strings.HasPrefix(l, "*PIN ") {
			firstPin = i
			break
		}
	}
	if firstPin < 0 {
		t.Fatal("extracted circuit wrote no *PIN line")
	}
	// edit rewrites field f of every line starting with directive
	// (only the first such line when once is set).
	edit := func(directive string, f int, val string, once bool) string {
		out := append([]string(nil), good...)
		for i, l := range out {
			if fs := strings.Fields(l); fs[0] == directive {
				fs[f] = val
				out[i] = strings.Join(fs, " ")
				if once {
					break
				}
			}
		}
		return strings.Join(out, "\n") + "\n"
	}
	// A 2-input cell whose inputs are distinct nets: its pin 0 is not
	// on its In[1] net.
	bare := cloneBare(t)
	var wrongNet string
	for _, cell := range bare.Cells {
		if len(cell.In) == 2 && cell.In[0] != cell.In[1] {
			wrongNet = fmt.Sprintf("*SPEF xtalksta-1\n*D_NET %s 1 1\n*PIN %s 0 1\n*END\n",
				bare.Net(cell.In[1]).Name, bare.Net(cell.Out).Name)
			break
		}
	}
	if wrongNet == "" {
		t.Fatal("no 2-input cell with distinct inputs")
	}

	cases := []struct {
		name, src string
		line      int
	}{
		{"PO without value", "*SPEF xtalksta-1\n*D_NET N0 1 1\n*PO\n*END\n", 3},
		{"PO extra field", "*SPEF xtalksta-1\n*D_NET N0 1 1\n*PO 1 2\n*END\n", 3},
		{"pin 7", edit("*PIN", 2, "7", true), firstPin + 1},
		{"pin -1", edit("*PIN", 2, "-1", true), firstPin + 1},
		{"pin -2", edit("*PIN", 2, "-2", true), firstPin + 1},
		{"clock pin on a gate", edit("*PIN", 2, strconv.Itoa(netlist.ClockPinIndex), true), firstPin + 1},
		{"pin on another net", wrongNet, 3},
		{"NaN wire caps", edit("*D_NET", 2, "NaN", false), 3},
		{"+Inf wire caps", edit("*D_NET", 2, "+Inf", false), 3},
		{"negative wire cap", edit("*D_NET", 2, "-1", true), 3},
		{"negative resistance", edit("*D_NET", 3, "-5", true), 3},
		{"NaN pin delay", edit("*PIN", 3, "NaN", true), firstPin + 1},
		{"negative coupling", "*SPEF xtalksta-1\n*D_NET N0 1 1\n*CC N1 -5\n*END\n", 3},
		{"Inf PO delay", "*SPEF xtalksta-1\n*D_NET N0 1 1\n*PO Inf\n*END\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := readNoPanic(tc.src, cloneBare(t))
			want := fmt.Sprintf("spef: line %d:", tc.line)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("got %v, want an error starting %q", err, want)
			}
		})
	}
}

// readNoPanic is Read with a panic turned into an error.
func readNoPanic(src string, c *netlist.Circuit) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return Read(strings.NewReader(src), c)
}
