package netlist

// CloneForEdit returns a copy of the circuit that is safe to mutate
// through the incremental-edit paths while the original keeps serving
// read-only analyses (copy-on-write revisioning). Every Net struct and
// its Couplings slice is copied — incremental edits rewrite coupling
// entries in place, compact the slice against its backing array and set
// a primary input's InputSlew — while everything else is shared with
// the original: Cells, Fanout slices, SinkWireDelay maps, the PI/PO
// lists and the name index (edits never add or rename nets). A resize
// must not write a shared cell: incremental.Apply copies the cell
// pointer slice and the cell it resizes.
// The copies preserve the dense layout: all Net structs come from one
// contiguous slab and all Couplings copies from a second one (each
// subslice capacity-capped at its span so edit-time appends reallocate
// that net's slice instead of stomping its neighbor), so a clone costs
// two allocations instead of O(nets) and revision N+1 keeps revision
// N's cache locality.
func (c *Circuit) CloneForEdit() *Circuit {
	nc := *c
	total := 0
	for _, n := range c.Nets {
		total += len(n.Par.Couplings)
	}
	netSlab := make([]Net, len(c.Nets))
	ccSlab := make([]Coupling, 0, total)
	nc.Nets = make([]*Net, len(c.Nets))
	for i, n := range c.Nets {
		netSlab[i] = *n
		cn := &netSlab[i]
		if n.Par.Couplings != nil {
			lo := len(ccSlab)
			ccSlab = append(ccSlab, n.Par.Couplings...)
			cn.Par.Couplings = ccSlab[lo:len(ccSlab):len(ccSlab)]
		}
		nc.Nets[i] = cn
	}
	return &nc
}
