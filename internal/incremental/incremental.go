// Package incremental implements the ECO (engineering change order)
// side of the re-analysis flow: typed design edits, their atomic
// application to an extracted circuit, and the dirty seeds — the nets
// whose electrical parameters a batch changed, which core.RunSeeded
// grows into the full dirty cone (fan-out plus quiescent-time coupling
// victims; see DESIGN.md §9).
package incremental

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"xtalksta/internal/core"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// Op names one kind of design edit.
type Op string

// The supported edit operations. All are electrical: they change
// parasitics, drive strengths or boundary conditions but never the
// netlist graph itself, so net and cell IDs stay stable across
// revisions (the property replay seeding depends on).
const (
	// OpScaleCoupling multiplies the coupling cap between nets A and B
	// by Value.
	OpScaleCoupling Op = "scale_coupling"
	// OpSetCoupling sets the coupling cap between nets A and B to Value
	// farads.
	OpSetCoupling Op = "set_coupling"
	// OpAddCoupling adds a new coupling cap of Value farads between
	// nets A and B (both directions, as extraction does).
	OpAddCoupling Op = "add_coupling"
	// OpRemoveCoupling removes the coupling between nets A and B.
	OpRemoveCoupling Op = "remove_coupling"
	// OpDecoupleNet removes every coupling cap on net A (shielding the
	// net).
	OpDecoupleNet Op = "decouple_net"
	// OpResizeCell sets the drive-strength multiplier of Cell to Value
	// (flip-flops cannot be resized).
	OpResizeCell Op = "resize_cell"
	// OpSetInputSlew sets the transition time of primary input A to
	// Value seconds.
	OpSetInputSlew Op = "set_input_slew"
)

// Edit is one design change. Net and cell references are by name so
// batches can be serialized and replayed (`xtalksta -eco`).
type Edit struct {
	Op Op `json:"op"`
	// A and B name the nets of coupling edits; A alone names the net of
	// decouple/input-slew edits.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Cell names the resize target.
	Cell string `json:"cell,omitempty"`
	// Value is the factor (scale), farads (set/add), multiplier
	// (resize) or seconds (input slew).
	Value float64 `json:"value,omitempty"`
}

func (ed Edit) String() string {
	switch ed.Op {
	case OpScaleCoupling:
		return fmt.Sprintf("scale_coupling(%s,%s)×%g", ed.A, ed.B, ed.Value)
	case OpSetCoupling:
		return fmt.Sprintf("set_coupling(%s,%s)=%gfF", ed.A, ed.B, ed.Value*1e15)
	case OpAddCoupling:
		return fmt.Sprintf("add_coupling(%s,%s)=%gfF", ed.A, ed.B, ed.Value*1e15)
	case OpRemoveCoupling:
		return fmt.Sprintf("remove_coupling(%s,%s)", ed.A, ed.B)
	case OpDecoupleNet:
		return fmt.Sprintf("decouple_net(%s)", ed.A)
	case OpResizeCell:
		return fmt.Sprintf("resize_cell(%s)×%g", ed.Cell, ed.Value)
	case OpSetInputSlew:
		return fmt.Sprintf("set_input_slew(%s)=%gps", ed.A, ed.Value*1e12)
	}
	return fmt.Sprintf("edit(%q)", string(ed.Op))
}

// Overrides carries the edit state that lives in analysis options
// rather than in the circuit: per-cell drive strengths and per-PI input
// slews. It accumulates across batches.
type Overrides struct {
	CellSizes map[netlist.CellID]float64
	PISlews   map[netlist.NetID]float64
}

// MergeInto overlays the overrides onto analysis options, cloning the
// option maps so stored ReplayState options are never mutated.
func (ov *Overrides) MergeInto(opts *core.Options) {
	if len(ov.CellSizes) > 0 {
		m := make(map[netlist.CellID]float64, len(opts.CellSizes)+len(ov.CellSizes))
		for k, v := range opts.CellSizes {
			m[k] = v
		}
		for k, v := range ov.CellSizes {
			m[k] = v
		}
		opts.CellSizes = m
	}
	if len(ov.PISlews) > 0 {
		m := make(map[netlist.NetID]float64, len(opts.PISlews)+len(ov.PISlews))
		for k, v := range opts.PISlews {
			m[k] = v
		}
		for k, v := range ov.PISlews {
			m[k] = v
		}
		opts.PISlews = m
	}
}

// LoadBatches reads a JSON array of edit batches (the `-eco` replay
// file format: [[edit, ...], [edit, ...], ...]).
func LoadBatches(path string) ([][]Edit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var batches [][]Edit
	if err := json.Unmarshal(data, &batches); err != nil {
		// Accept a single flat batch as a convenience.
		var one []Edit
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			return nil, fmt.Errorf("incremental: %s: %w", path, err)
		}
		batches = [][]Edit{one}
	}
	return batches, nil
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// resolved is an edit with its name references looked up.
type resolved struct {
	edit Edit
	a, b netlist.NetID
	cell netlist.CellID
}

// Apply validates and applies a batch of edits atomically: either every
// edit is applied to the circuit and overrides, or neither is and an
// error reports the first offending edit. Returns the dirty seeds —
// each net whose electrical parameters changed (coupling edits seed
// both sides; a resize seeds the cell's output and input nets, whose
// loads include its input capacitance). Per-edit spans and the
// eco_edits_total counter go to tr/reg when non-nil.
func Apply(c *netlist.Circuit, ov *Overrides, edits []Edit, reg *obs.Registry, tr *obs.Tracer) ([]netlist.NetID, error) {
	res := make([]resolved, 0, len(edits))
	for i, ed := range edits {
		r, err := resolve(c, ed)
		if err != nil {
			return nil, fmt.Errorf("incremental: edit %d (%s): %w", i, ed, err)
		}
		res = append(res, r)
	}

	// Snapshot the coupling lists of every net a coupling edit can
	// touch, so a mid-batch failure can restore them.
	saved := make(map[netlist.NetID][]netlist.Coupling)
	snapshot := func(id netlist.NetID) {
		if _, ok := saved[id]; !ok {
			saved[id] = append([]netlist.Coupling(nil), c.Net(id).Par.Couplings...)
		}
	}
	for _, r := range res {
		switch r.edit.Op {
		case OpScaleCoupling, OpSetCoupling, OpAddCoupling, OpRemoveCoupling:
			snapshot(r.a)
			snapshot(r.b)
		case OpDecoupleNet:
			snapshot(r.a)
			for _, cp := range c.Net(r.a).Par.Couplings {
				snapshot(cp.Other)
			}
		}
	}
	// Overrides mutate during the apply loop too; keep copies so a
	// mid-batch failure rolls the whole batch back, not just couplings.
	savedSizes := cloneMap(ov.CellSizes)
	savedSlews := cloneMap(ov.PISlews)
	restore := func() {
		for id, cps := range saved {
			c.Net(id).Par.Couplings = cps
		}
		ov.CellSizes = savedSizes
		ov.PISlews = savedSlews
	}

	counter := reg.Counter(obs.MEcoEdits)
	var seeds []netlist.NetID
	seen := make(map[netlist.NetID]bool)
	seed := func(ids ...netlist.NetID) {
		for _, id := range ids {
			if id != netlist.NoNet && !seen[id] {
				seen[id] = true
				seeds = append(seeds, id)
			}
		}
	}
	for i, r := range res {
		span := tr.Begin("eco-edit", 0).Arg("op", string(r.edit.Op)).Arg("edit", r.edit.String())
		err := apply(c, ov, r, seed)
		span.End()
		if err != nil {
			restore()
			return nil, fmt.Errorf("incremental: edit %d (%s): %w", i, r.edit, err)
		}
		counter.Inc()
	}
	return seeds, nil
}

func resolve(c *netlist.Circuit, ed Edit) (resolved, error) {
	r := resolved{edit: ed, a: netlist.NoNet, b: netlist.NoNet, cell: netlist.NoCell}
	// NaN passes every range check below and ±Inf overflows the loads
	// the analysis builds from it.
	if math.IsNaN(ed.Value) || math.IsInf(ed.Value, 0) {
		return r, fmt.Errorf("value must be finite, got %g", ed.Value)
	}
	net := func(name, field string) (netlist.NetID, error) {
		if name == "" {
			return netlist.NoNet, fmt.Errorf("missing net name %q", field)
		}
		n, ok := c.NetByName(name)
		if !ok {
			return netlist.NoNet, fmt.Errorf("unknown net %q", name)
		}
		return n.ID, nil
	}
	var err error
	switch ed.Op {
	case OpScaleCoupling, OpSetCoupling, OpAddCoupling, OpRemoveCoupling:
		if r.a, err = net(ed.A, "a"); err != nil {
			return r, err
		}
		if r.b, err = net(ed.B, "b"); err != nil {
			return r, err
		}
		if r.a == r.b {
			return r, fmt.Errorf("net cannot couple to itself")
		}
		switch ed.Op {
		case OpScaleCoupling:
			if ed.Value < 0 {
				return r, fmt.Errorf("scale factor must be non-negative, got %g", ed.Value)
			}
		case OpSetCoupling:
			if ed.Value < 0 {
				return r, fmt.Errorf("coupling cap must be non-negative, got %g", ed.Value)
			}
		case OpAddCoupling:
			if ed.Value <= 0 {
				return r, fmt.Errorf("coupling cap must be positive, got %g", ed.Value)
			}
		}
	case OpDecoupleNet:
		if r.a, err = net(ed.A, "a"); err != nil {
			return r, err
		}
	case OpSetInputSlew:
		if r.a, err = net(ed.A, "a"); err != nil {
			return r, err
		}
		if !c.Net(r.a).IsPI {
			return r, fmt.Errorf("net %q is not a primary input", ed.A)
		}
		if ed.Value <= 0 {
			return r, fmt.Errorf("input slew must be positive, got %g", ed.Value)
		}
	case OpResizeCell:
		if ed.Cell == "" {
			return r, fmt.Errorf("missing cell name")
		}
		found := false
		for _, cell := range c.Cells {
			if cell.Name == ed.Cell {
				r.cell = cell.ID
				found = true
				break
			}
		}
		if !found {
			return r, fmt.Errorf("unknown cell %q", ed.Cell)
		}
		cell := c.Cell(r.cell)
		if cell.Kind == netlist.DFF {
			return r, fmt.Errorf("flip-flop %q cannot be resized", ed.Cell)
		}
		if cell.Out == netlist.NoNet {
			return r, fmt.Errorf("cell %q drives no net", ed.Cell)
		}
		if ed.Value <= 0 {
			return r, fmt.Errorf("size multiplier must be positive, got %g", ed.Value)
		}
	default:
		return r, fmt.Errorf("unknown op %q", string(ed.Op))
	}
	return r, nil
}

// pairEntries mutates every coupling entry from `from` to `to` via f,
// returning how many entries matched.
func pairEntries(c *netlist.Circuit, from, to netlist.NetID, f func(cp *netlist.Coupling)) int {
	cps := c.Net(from).Par.Couplings
	n := 0
	for i := range cps {
		if cps[i].Other == to {
			f(&cps[i])
			n++
		}
	}
	return n
}

func removePair(c *netlist.Circuit, from, to netlist.NetID) int {
	par := &c.Net(from).Par
	kept := par.Couplings[:0]
	n := 0
	for _, cp := range par.Couplings {
		if cp.Other == to {
			n++
			continue
		}
		kept = append(kept, cp)
	}
	par.Couplings = kept
	return n
}

func apply(c *netlist.Circuit, ov *Overrides, r resolved, seed func(...netlist.NetID)) error {
	switch r.edit.Op {
	case OpScaleCoupling, OpSetCoupling:
		finite := true
		mutate := func(cp *netlist.Coupling) {
			if r.edit.Op == OpScaleCoupling {
				cp.C *= r.edit.Value
			} else {
				cp.C = r.edit.Value
			}
			if math.IsNaN(cp.C) || math.IsInf(cp.C, 0) {
				finite = false
			}
		}
		na := pairEntries(c, r.a, r.b, mutate)
		nb := pairEntries(c, r.b, r.a, mutate)
		if na == 0 || nb == 0 {
			return fmt.Errorf("nets %q and %q are not coupled", r.edit.A, r.edit.B)
		}
		if !finite {
			// A finite factor can still overflow a cap, alone or
			// compounded by earlier edits of the batch.
			return fmt.Errorf("coupling cap between %q and %q would be non-finite", r.edit.A, r.edit.B)
		}
		seed(r.a, r.b)
	case OpAddCoupling:
		c.Net(r.a).Par.Couplings = append(c.Net(r.a).Par.Couplings, netlist.Coupling{Other: r.b, C: r.edit.Value})
		c.Net(r.b).Par.Couplings = append(c.Net(r.b).Par.Couplings, netlist.Coupling{Other: r.a, C: r.edit.Value})
		seed(r.a, r.b)
	case OpRemoveCoupling:
		na := removePair(c, r.a, r.b)
		nb := removePair(c, r.b, r.a)
		if na == 0 || nb == 0 {
			return fmt.Errorf("nets %q and %q are not coupled", r.edit.A, r.edit.B)
		}
		seed(r.a, r.b)
	case OpDecoupleNet:
		par := &c.Net(r.a).Par
		if len(par.Couplings) == 0 {
			return fmt.Errorf("net %q has no coupling to remove", r.edit.A)
		}
		seed(r.a)
		for _, cp := range append([]netlist.Coupling(nil), par.Couplings...) {
			removePair(c, cp.Other, r.a)
			seed(cp.Other)
		}
		par.Couplings = nil
	case OpResizeCell:
		if ov.CellSizes == nil {
			ov.CellSizes = make(map[netlist.CellID]float64)
		}
		ov.CellSizes[r.cell] = r.edit.Value
		cell := c.Cell(r.cell)
		// The cell's drive strength changes its output arcs, and its
		// input capacitance changes the load of every net feeding it.
		seed(cell.Out)
		seed(cell.In...)
	case OpSetInputSlew:
		if ov.PISlews == nil {
			ov.PISlews = make(map[netlist.NetID]float64)
		}
		ov.PISlews[r.a] = r.edit.Value
		seed(r.a)
	}
	return nil
}
