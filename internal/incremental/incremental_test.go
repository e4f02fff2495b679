package incremental_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/incremental"
	"xtalksta/internal/netlist"
)

// build returns a small extracted design shared by the tests.
func build(t *testing.T, seed int64) *xtalksta.Design {
	t.Helper()
	d, err := xtalksta.Generate(circuitgen.Params{
		Seed: seed, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4,
	}, xtalksta.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coupledPair finds a coupled pair with a cell-driven side.
func coupledPair(t *testing.T, c *netlist.Circuit) (string, string) {
	t.Helper()
	for _, nn := range c.Nets {
		if nn.Driver != netlist.NoCell && len(nn.Par.Couplings) > 0 {
			return nn.Name, c.Net(nn.Par.Couplings[0].Other).Name
		}
	}
	t.Fatal("no coupled driven net")
	return "", ""
}

// couplingOf returns the total coupling cap between two named nets.
func couplingOf(c *netlist.Circuit, a, b string) float64 {
	na, _ := c.NetByName(a)
	nb, _ := c.NetByName(b)
	s := 0.0
	for _, cp := range na.Par.Couplings {
		if cp.Other == nb.ID {
			s += cp.C
		}
	}
	return s
}

func TestApplySeedsAndEffects(t *testing.T) {
	d := build(t, 21)
	c := d.Circuit
	a, b := coupledPair(t, c)
	before := couplingOf(c, a, b)

	c, seeds, err := incremental.Apply(c, []incremental.Edit{
		{Op: incremental.OpScaleCoupling, A: a, B: b, Value: 2},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := couplingOf(c, a, b); got <= before {
		t.Fatalf("coupling %g not scaled up from %g", got, before)
	}
	na, _ := c.NetByName(a)
	nb, _ := c.NetByName(b)
	want := map[netlist.NetID]bool{na.ID: true, nb.ID: true}
	if len(seeds) != 2 || !want[seeds[0]] || !want[seeds[1]] {
		t.Fatalf("scale seeds = %v, want {%d,%d}", seeds, na.ID, nb.ID)
	}

	// Resize: seeds the output and every input net (whose load sees the
	// cell's input caps), and sets the size on the copy's cell.
	var gate *netlist.Cell
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet && len(cell.In) > 0 {
			gate = cell
			break
		}
	}
	c, seeds, err = incremental.Apply(c, []incremental.Edit{
		{Op: incremental.OpResizeCell, Cell: gate.Name, Value: 1.7},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Cell(gate.ID).Size; got != 1.7 {
		t.Fatalf("edited size = %v, want 1.7", got)
	}
	seedSet := map[netlist.NetID]bool{}
	for _, id := range seeds {
		seedSet[id] = true
	}
	if !seedSet[gate.Out] {
		t.Fatalf("resize seeds %v miss output %d", seeds, gate.Out)
	}
	for _, in := range gate.In {
		if !seedSet[in] {
			t.Fatalf("resize seeds %v miss input %d", seeds, in)
		}
	}

	// Decouple: seeds the net and every former neighbor, and removes
	// both sides of every entry.
	var victim *netlist.Net
	for _, nn := range c.Nets {
		if len(nn.Par.Couplings) > 1 {
			victim = nn
			break
		}
	}
	neighbors := append([]netlist.Coupling(nil), victim.Par.Couplings...)
	c, seeds, err = incremental.Apply(c, []incremental.Edit{
		{Op: incremental.OpDecoupleNet, A: victim.Name},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim = c.Net(victim.ID)
	if len(victim.Par.Couplings) != 0 {
		t.Fatalf("decoupled net still has %d couplings", len(victim.Par.Couplings))
	}
	seedSet = map[netlist.NetID]bool{}
	for _, id := range seeds {
		seedSet[id] = true
	}
	if !seedSet[victim.ID] {
		t.Fatalf("decouple seeds %v miss the net itself", seeds)
	}
	for _, cp := range neighbors {
		if !seedSet[cp.Other] {
			t.Fatalf("decouple seeds %v miss neighbor %d", seeds, cp.Other)
		}
		for _, back := range c.Net(cp.Other).Par.Couplings {
			if back.Other == victim.ID {
				t.Fatalf("neighbor %d still couples back to decoupled net", cp.Other)
			}
		}
	}
}

func TestApplyValidation(t *testing.T) {
	d := build(t, 22)
	c := d.Circuit
	a, b := coupledPair(t, c)
	pi := c.Net(c.PIs[0]).Name
	var dff *netlist.Cell
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF {
			dff = cell
			break
		}
	}
	var driven string
	for _, nn := range c.Nets {
		if nn.Driver != netlist.NoCell && !nn.IsPI {
			driven = nn.Name
			break
		}
	}
	var gate string
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet {
			gate = cell.Name
			break
		}
	}
	type validationCase struct {
		name string
		edit incremental.Edit
		want string
	}
	cases := []validationCase{
		{"unknown net", incremental.Edit{Op: incremental.OpScaleCoupling, A: "nope", B: b, Value: 2}, "unknown net"},
		{"self coupling", incremental.Edit{Op: incremental.OpAddCoupling, A: a, B: a, Value: 1e-15}, "itself"},
		{"negative scale", incremental.Edit{Op: incremental.OpScaleCoupling, A: a, B: b, Value: -1}, "non-negative"},
		{"zero add", incremental.Edit{Op: incremental.OpAddCoupling, A: a, B: b, Value: 0}, "positive"},
		{"resize dff", incremental.Edit{Op: incremental.OpResizeCell, Cell: dff.Name, Value: 2}, "cannot be resized"},
		{"unknown cell", incremental.Edit{Op: incremental.OpResizeCell, Cell: "ghost", Value: 2}, "unknown cell"},
		{"slew on non-PI", incremental.Edit{Op: incremental.OpSetInputSlew, A: driven, Value: 1e-10}, "not a primary input"},
		{"zero slew", incremental.Edit{Op: incremental.OpSetInputSlew, A: pi, Value: 0}, "positive"},
		{"unknown op", incremental.Edit{Op: "teleport", A: a}, "unknown op"},
	}
	// NaN passes every sign check and ±Inf overflows the loads built
	// from it, so each op that reads Value refuses all three.
	for _, ed := range []incremental.Edit{
		{Op: incremental.OpScaleCoupling, A: a, B: b},
		{Op: incremental.OpSetCoupling, A: a, B: b},
		{Op: incremental.OpAddCoupling, A: a, B: b},
		{Op: incremental.OpResizeCell, Cell: gate},
		{Op: incremental.OpSetInputSlew, A: pi},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ed.Value = v
			cases = append(cases, validationCase{fmt.Sprintf("%s=%g", ed.Op, v), ed, "must be finite"})
		}
	}
	for _, tc := range cases {
		if _, _, err := incremental.Apply(c, []incremental.Edit{tc.edit}, nil, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestApplyAtomicity: Apply never writes its input circuit. A batch
// whose later edit fails returns only the error, and the input keeps
// its couplings and cell sizes; a batch that succeeds lands on the
// returned copy alone.
func TestApplyAtomicity(t *testing.T) {
	d := build(t, 23)
	c := d.Circuit
	a, b := coupledPair(t, c)
	before := couplingOf(c, a, b)
	var gate *netlist.Cell
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet {
			gate = cell
			break
		}
	}
	pi := c.Net(c.PIs[0])
	// Find an uncoupled pair for the failing tail edit: resolves fine,
	// fails at apply time.
	na, _ := c.NetByName(a)
	var uncoupled string
	for _, nn := range c.Nets {
		if nn.ID == na.ID {
			continue
		}
		coupled := false
		for _, cp := range na.Par.Couplings {
			if cp.Other == nn.ID {
				coupled = true
				break
			}
		}
		if !coupled {
			uncoupled = nn.Name
			break
		}
	}
	unchanged := func(ctx string) {
		t.Helper()
		if got := couplingOf(c, a, b); math.Float64bits(got) != math.Float64bits(before) {
			t.Fatalf("%s: input coupling changed: %g != %g", ctx, got, before)
		}
		if c.Cell(gate.ID) != gate || gate.Size != 0 {
			t.Fatalf("%s: input cell %s written (size %g)", ctx, gate.Name, c.Cell(gate.ID).Size)
		}
		if pi.InputSlew != 0 {
			t.Fatalf("%s: input slew of %s written: %g", ctx, pi.Name, pi.InputSlew)
		}
	}

	batch := []incremental.Edit{
		{Op: incremental.OpScaleCoupling, A: a, B: b, Value: 3},
		{Op: incremental.OpResizeCell, Cell: gate.Name, Value: 2},
		{Op: incremental.OpSetInputSlew, A: pi.Name, Value: 1e-10},
		{Op: incremental.OpRemoveCoupling, A: a, B: uncoupled}, // fails
	}
	if next, seeds, err := incremental.Apply(c, batch, nil, nil); err == nil {
		t.Fatal("batch with failing tail accepted")
	} else if next != nil || seeds != nil {
		t.Fatalf("failed batch returned a circuit (%v) or seeds %v", next != nil, seeds)
	}
	unchanged("failed batch")

	next, _, err := incremental.Apply(c, batch[:3], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	unchanged("applied batch")
	if got := couplingOf(next, a, b); got <= before {
		t.Fatalf("copy coupling %g not scaled up from %g", got, before)
	}
	if got := next.Cell(gate.ID).Size; got != 2 {
		t.Fatalf("copy size = %g, want 2", got)
	}
	if got := next.Net(pi.ID).InputSlew; got != 1e-10 {
		t.Fatalf("copy input slew = %g, want 1e-10", got)
	}

	// Finite factors can still overflow: two 1e300 scales leave the cap
	// at +Inf, which the analysis would time as the smallest load
	// bucket. The second edit fails the batch, through Apply and through
	// the facade's copy-on-write Edit alike.
	overflow := []incremental.Edit{
		{Op: incremental.OpScaleCoupling, A: a, B: b, Value: 1e300},
		{Op: incremental.OpScaleCoupling, A: a, B: b, Value: 1e300},
	}
	if _, _, err := incremental.Apply(c, overflow, nil, nil); err == nil {
		t.Fatal("overflowing scale accepted")
	} else if !strings.Contains(err.Error(), "edit 1") || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("overflow error %q does not name edit 1 and the non-finite cap", err)
	}
	unchanged("overflow")
	if err := d.Edit(overflow...); err == nil {
		t.Fatal("Design.Edit accepted the overflowing scale")
	}
	if got := couplingOf(d.Circuit, a, b); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("Design.Edit changed the coupling: %g != %g", got, before)
	}
}

func TestLoadBatches(t *testing.T) {
	dir := t.TempDir()
	nested := filepath.Join(dir, "nested.json")
	os.WriteFile(nested, []byte(`[[{"op":"decouple_net","a":"N1"}],[{"op":"resize_cell","cell":"g1","value":2}]]`), 0o644)
	flat := filepath.Join(dir, "flat.json")
	os.WriteFile(flat, []byte(`[{"op":"remove_coupling","a":"N1","b":"N2"}]`), 0o644)
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"not":"a batch"}`), 0o644)

	got, err := incremental.LoadBatches(nested)
	if err != nil || len(got) != 2 || got[1][0].Op != incremental.OpResizeCell {
		t.Fatalf("nested: %v %v", got, err)
	}
	got, err = incremental.LoadBatches(flat)
	if err != nil || len(got) != 1 || got[0][0].Op != incremental.OpRemoveCoupling {
		t.Fatalf("flat: %v %v", got, err)
	}
	if _, err := incremental.LoadBatches(bad); err == nil {
		t.Fatal("malformed file accepted")
	}
	// A misspelled field ("factor" for "value") would leave the scale at
	// 0 and silently remove the coupling: both forms reject it, naming
	// the file and the field.
	for name, body := range map[string]string{
		"typo-nested.json": `[[{"op":"scale_coupling","a":"CLKB1","b":"Q48","factor":1.6}]]`,
		"typo-flat.json":   `[{"op":"scale_coupling","a":"CLKB1","b":"Q48","factor":1.6}]`,
	} {
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(body), 0o644)
		_, err := incremental.LoadBatches(path)
		if err == nil {
			t.Fatalf("%s: unknown field accepted", name)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `"factor"`) {
			t.Errorf("%s: error %q does not name the file and the unknown field", name, err)
		}
	}
	if _, err := incremental.LoadBatches(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRandomBatchAlwaysApplies: randomly generated batches must be
// internally consistent — Apply accepts each one against the evolving
// circuit.
func TestRandomBatchAlwaysApplies(t *testing.T) {
	c := build(t, 24).Circuit
	rng := rand.New(rand.NewSource(7))
	applied := 0
	for i := 0; i < 12; i++ {
		batch := incremental.RandomBatch(c, rng, 5)
		if len(batch) == 0 {
			continue
		}
		next, _, err := incremental.Apply(c, batch, nil, nil)
		if err != nil {
			t.Fatalf("batch %d rejected: %v\nbatch: %v", i, err, batch)
		}
		c = next
		applied += len(batch)
	}
	if applied == 0 {
		t.Fatal("no random edits generated")
	}
}
