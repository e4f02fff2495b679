// Package incremental implements the ECO (engineering change order)
// side of the re-analysis flow: typed design edits, their atomic
// application to a copy of an extracted circuit, and the dirty seeds —
// the nets whose electrical parameters a batch changed, which
// core.RunSeeded grows into the full dirty cone (fan-out plus
// quiescent-time coupling victims; see DESIGN.md §9).
package incremental

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"

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

// LoadBatches reads a JSON array of edit batches (the `-eco` replay
// file format: [[edit, ...], [edit, ...], ...]).
func LoadBatches(path string) ([][]Edit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeBatches(path, data)
}

// decodeBatches decodes the `-eco` file format, or a single flat batch
// ([edit, ...]) as a convenience, telling the two apart by the first
// element. A field an Edit does not have is an error in either form:
// dropped, a misspelled "value" would leave its edit at the zero value
// (a scale by 0 removes the coupling). Errors name the input.
func decodeBatches(name string, data []byte) ([][]Edit, error) {
	var elems []json.RawMessage
	err := json.Unmarshal(data, &elems)
	var batches [][]Edit
	switch {
	case err != nil: // not a JSON array
	case len(elems) > 0 && elems[0][0] == '{':
		var one []Edit
		if err = decodeStrict(data, &one); err == nil {
			batches = [][]Edit{one}
		}
	default:
		err = decodeStrict(data, &batches)
	}
	if err != nil {
		return nil, fmt.Errorf("incremental: %s: %w", name, err)
	}
	return batches, nil
}

// decodeStrict decodes one JSON value into v, rejecting unknown fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolved is an edit with its name references looked up.
type resolved struct {
	edit Edit
	a, b netlist.NetID
	cell netlist.CellID
}

// Apply validates a batch of edits against c and applies it to a copy
// of c (CloneForEdit), returning the edited copy and the dirty seeds —
// each net whose electrical parameters changed (coupling edits seed
// both sides; a resize seeds the cell's output and input nets, whose
// loads include its input capacitance). c itself is never written, so
// analyses of it may run on, and a batch with an invalid edit returns
// only an error naming the first one. Per-edit spans and the
// eco_edits_total counter go to tr/reg when non-nil.
func Apply(c *netlist.Circuit, edits []Edit, reg *obs.Registry, tr *obs.Tracer) (*netlist.Circuit, []netlist.NetID, error) {
	res := make([]resolved, 0, len(edits))
	for i, ed := range edits {
		r, err := resolve(c, ed)
		if err != nil {
			return nil, nil, fmt.Errorf("incremental: edit %d (%s): %w", i, ed, err)
		}
		res = append(res, r)
	}

	next := c.CloneForEdit()
	// The clone shares c's cells; a resize replaces its cell with a
	// copy, in a pointer slice of the batch's own.
	if slices.ContainsFunc(res, func(r resolved) bool { return r.edit.Op == OpResizeCell }) {
		next.Cells = slices.Clone(c.Cells)
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
		err := apply(next, r, seed)
		span.End()
		if err != nil {
			return nil, nil, fmt.Errorf("incremental: edit %d (%s): %w", i, r.edit, err)
		}
		counter.Inc()
	}
	return next, seeds, nil
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

func apply(c *netlist.Circuit, r resolved, seed func(...netlist.NetID)) error {
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
		cell := *c.Cell(r.cell)
		cell.Size = r.edit.Value
		c.Cells[r.cell] = &cell
		// The cell's drive strength changes its output arcs, and its
		// input capacitance changes the load of every net feeding it.
		seed(cell.Out)
		seed(cell.In...)
	case OpSetInputSlew:
		c.Net(r.a).InputSlew = r.edit.Value
		seed(r.a)
	}
	return nil
}
