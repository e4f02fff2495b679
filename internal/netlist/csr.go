package netlist

// This file holds the dense (SoA/CSR) forms of the per-net parasitic
// data. The per-net slices and maps in Parasitics remain the mutable
// edit-time representation; the helpers here compact them into
// contiguous slabs and offset arrays so the compiled analysis
// structures (core.Compiled, layout trees) can iterate adjacency as
// flat array scans instead of pointer-chasing per-net allocations.
// Compaction never changes per-net iteration order — the analyses'
// floating-point results are summation-order sensitive, and the
// bit-exactness contract across revisions depends on it.

// CompactCouplings re-points every net's Couplings slice into one
// contiguous slab, in net-id order, preserving each net's entry order.
// Each subslice is capacity-capped at its own span, so a later append
// (incremental OpAddCoupling) reallocates that net's slice out of the
// slab instead of stomping its neighbor. Call after extraction (and
// after bulk construction); incremental in-place edits keep working on
// the slab.
func (c *Circuit) CompactCouplings() {
	total := 0
	for _, n := range c.Nets {
		total += len(n.Par.Couplings)
	}
	if total == 0 {
		return
	}
	slab := make([]Coupling, 0, total)
	for _, n := range c.Nets {
		if len(n.Par.Couplings) == 0 {
			continue
		}
		lo := len(slab)
		slab = append(slab, n.Par.Couplings...)
		n.Par.Couplings = slab[lo:len(slab):len(slab)]
	}
}

// CouplingCSR is the read-only SoA adjacency of every coupling pair in
// a circuit: net id → span [Off[id-1], Off[id]) into the parallel
// Nbr/C arrays. Built by BuildCouplingCSR at compile time; never
// written afterwards, so any number of concurrent analysis sessions
// may share one.
type CouplingCSR struct {
	Off []int32   // len(nets)+1 span offsets
	Nbr []NetID   // aggressor net per entry
	C   []float64 // coupling capacitance per entry (farads)
}

// Span returns the half-open entry range of one net's couplings.
func (a *CouplingCSR) Span(id NetID) (lo, hi int32) {
	return a.Off[id-1], a.Off[id]
}

// BuildCouplingCSR flattens the per-net coupling lists into one CSR
// adjacency, preserving per-net entry order exactly (bit-exactness:
// coupling sums are accumulated in this order).
func (c *Circuit) BuildCouplingCSR() *CouplingCSR {
	total := 0
	for _, n := range c.Nets {
		total += len(n.Par.Couplings)
	}
	a := &CouplingCSR{
		Off: make([]int32, len(c.Nets)+1),
		Nbr: make([]NetID, 0, total),
		C:   make([]float64, 0, total),
	}
	for i, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			a.Nbr = append(a.Nbr, cp.Other)
			a.C = append(a.C, cp.C)
		}
		a.Off[i+1] = int32(len(a.Nbr))
	}
	return a
}

// RebuildCouplingCSR builds the coupling CSR of c from prev, the CSR of
// an earlier revision of c: the nets flagged in changed (by NetID−1)
// read their current lists, every other net copies its span from prev.
// The result equals BuildCouplingCSR when changed flags every net whose
// list differs from prev's.
func (c *Circuit) RebuildCouplingCSR(prev *CouplingCSR, changed []bool) *CouplingCSR {
	total := len(prev.Nbr)
	for i, ch := range changed {
		if ch {
			total += len(c.Nets[i].Par.Couplings) - int(prev.Off[i+1]-prev.Off[i])
		}
	}
	a := &CouplingCSR{
		Off: make([]int32, len(c.Nets)+1),
		Nbr: make([]NetID, 0, total),
		C:   make([]float64, 0, total),
	}
	for i := range c.Nets {
		if changed[i] {
			for _, cp := range c.Nets[i].Par.Couplings {
				a.Nbr = append(a.Nbr, cp.Other)
				a.C = append(a.C, cp.C)
			}
		} else {
			lo, hi := prev.Off[i], prev.Off[i+1]
			a.Nbr = append(a.Nbr, prev.Nbr[lo:hi]...)
			a.C = append(a.C, prev.C[lo:hi]...)
		}
		a.Off[i+1] = int32(len(a.Nbr))
	}
	return a
}

// SinkDelayCSR is the dense form of the per-net SinkWireDelay maps,
// keyed the way the analyses read them: entry Off[cell]+pin is the
// Elmore wire delay from the driver of In[pin] to that input pin of
// the cell. Hot arc loops (which already hold a cell and a pin index)
// read the delay with no map lookup or PinRef construction. Clock pins
// (PinRef.Pin == ClockPinIndex) are not regular input pins and are
// indexed per clocked cell in ClockDelay.
type SinkDelayCSR struct {
	Off   []int32   // len(cells)+1 span offsets into Delay
	Delay []float64 // wire delay per (cell, input pin)
	// ClockDelay[cell] is the wire delay from the cell's clock net
	// driver to its clock pin (0 when the cell is not clocked or the
	// extraction recorded none).
	ClockDelay []float64
}

// At returns the wire delay into input pin of cell.
func (s *SinkDelayCSR) At(cell CellID, pin int) float64 {
	return s.Delay[s.Off[cell]+int32(pin)]
}

// BuildSinkDelayCSR flattens the SinkWireDelay maps. Pins absent from
// the driving net's map read as 0, matching the map's zero-value
// semantics.
func (c *Circuit) BuildSinkDelayCSR() *SinkDelayCSR {
	total := 0
	for _, cell := range c.Cells {
		total += len(cell.In)
	}
	s := &SinkDelayCSR{
		Off:        make([]int32, len(c.Cells)+1),
		Delay:      make([]float64, 0, total),
		ClockDelay: make([]float64, len(c.Cells)),
	}
	for _, cell := range c.Cells {
		for pin, in := range cell.In {
			pr := PinRef{Cell: cell.ID, Pin: pin}
			s.Delay = append(s.Delay, c.Net(in).Par.SinkWireDelay[pr])
		}
		s.Off[cell.ID+1] = int32(len(s.Delay))
		if cell.Clock != NoNet {
			pr := PinRef{Cell: cell.ID, Pin: ClockPinIndex}
			s.ClockDelay[cell.ID] = c.Net(cell.Clock).Par.SinkWireDelay[pr]
		}
	}
	return s
}
