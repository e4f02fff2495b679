package core

import (
	"fmt"
	"slices"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
)

// Compiled is the immutable compiled form of one design revision: the
// per-net electrical summaries, topological order and ranks, per-phase
// rank buckets, endpoint list and clock-sink index — everything an
// analysis needs that does not change between runs. A Compiled is built
// once (Compile, or Derive from the previous revision's) and then shared
// by any number of concurrent sessions (NewSession); nothing in it is
// written after it is built, so no locking is needed around it.
//
// The snapshot depends on two analysis options — POCap and PiModel
// feed the net summaries and endpoint extras — recorded as the compile
// key; Matches reports whether a later run can reuse the snapshot.
// Everything else it reads, cell sizes and input slews included, is
// circuit state, so a snapshot is bound to its circuit revision.
type Compiled struct {
	C    *netlist.Circuit
	Proc device.Process
	Siz  ccc.Sizing

	info      []netInfo // by NetID-1
	order     []netlist.CellID
	endpoints []endpointRef
	// netRank is the per-net rank of the calculated-neighbor test, and
	// clockLv/mainLv each phase's cells in rank buckets; see levels.go.
	netRank         []int
	clockLv, mainLv levels
	// cc is the SoA coupling adjacency of the whole design (offsets +
	// neighbor/capacitance arrays). The hot coupling-classification
	// loops scan these flat arrays instead of per-net Coupling slices.
	cc *netlist.CouplingCSR
	// sink is the dense (cell, pin) → wire-delay table replacing the
	// per-net SinkWireDelay map lookups on the arc path.
	sink *netlist.SinkDelayCSR
	// clockSinks is the CSR mapping a clock net to the flip-flops it
	// clocks (span [clockSinkOff[id-1], clockSinkOff[id]) of
	// clockSinkCells), for dirty-set expansion through launch seeding
	// (forFanout).
	clockSinkOff   []int32
	clockSinkCells []netlist.CellID
	// arcOff is the arc index the per-arc slabs (Engine.bcs, tier0Run.memo)
	// share: the arcs of the cell that drives net id own slots
	// [arcOff[id-1], arcOff[id]), two per input pin (see arcSlot).
	arcOff []int32

	// Compile key (see Matches).
	poCap   float64
	piModel bool

	// rev is the design revision the snapshot was compiled at (stamped
	// by the API layer; 0 for standalone engine use).
	rev uint64
}

// Compile builds the immutable snapshot of a circuit under the
// compile-relevant options (POCap, PiModel; everything else in opts is
// per-session and ignored here). The circuit must be lowered (only INV,
// NAND, NOR, DFF cells) and carry extracted parasitics, and must not be
// mutated while the snapshot is alive — the API layer guarantees this
// by copy-on-write editing.
func Compile(c *netlist.Circuit, calc delaycalc.Evaluator, opts Options) (*Compiled, error) {
	opts = opts.withDefaults()
	for _, cell := range c.Cells {
		if !cell.Kind.Primitive() {
			return nil, fmt.Errorf("core: cell %s has non-primitive kind %s; run netlist.Lower first", cell.Name, cell.Kind)
		}
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	cd := &Compiled{
		C:       c,
		Proc:    calc.Proc(),
		Siz:     calc.Siz(),
		order:   order,
		poCap:   opts.POCap,
		piModel: opts.PiModel,
	}
	cd.cc = c.BuildCouplingCSR()
	cd.sink = c.BuildSinkDelayCSR()
	cd.buildClockSinks()
	cd.buildArcIndex()
	cd.info = make([]netInfo, len(c.Nets))
	for i := range cd.info {
		if err := cd.buildRow(netlist.NetID(i + 1)); err != nil {
			return nil, err
		}
	}
	cd.buildEndpoints()
	cd.buildLevels()
	return cd, nil
}

// Derive builds the snapshot of c, an edited copy of cd's circuit, under
// opts. seed flags (by NetID−1) every net whose electrical parameters
// the edits since cd's revision changed, as incremental.Apply reports
// them. No edit changes topology, so the snapshot shares cd's order,
// ranks, rank buckets, endpoints, sink CSR, clock-sink and arc index; it
// rebuilds the coupling CSR (unseeded spans copied from cd's) and the
// seeded nets' rows, with the row function Compile uses, so it equals
// Compile(c, calc, opts) field for field. It returns nil when cd cannot
// be the parent — another net or cell count, POCap or PiModel — and the
// caller compiles from scratch.
func (cd *Compiled) Derive(c *netlist.Circuit, opts Options, seed []bool) (*Compiled, error) {
	if len(c.Nets) != len(cd.C.Nets) || len(c.Cells) != len(cd.C.Cells) || len(seed) != len(c.Nets) ||
		!cd.Matches(opts) {
		return nil, nil
	}
	d := *cd
	d.C = c
	d.rev = 0
	d.cc = c.RebuildCouplingCSR(cd.cc, seed)
	d.info = slices.Clone(cd.info)
	for i, s := range seed {
		if s {
			if err := d.buildRow(netlist.NetID(i + 1)); err != nil {
				return nil, err
			}
		}
	}
	return &d, nil
}

// buildClockSinks indexes the flip-flops per clock net as a CSR
// (counting pass, then fill), preserving cell order within each net.
func (cd *Compiled) buildClockSinks() {
	c := cd.C
	cd.clockSinkOff = make([]int32, len(c.Nets)+1)
	total := 0
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			cd.clockSinkOff[cell.Clock]++
			total++
		}
	}
	for i := 1; i < len(cd.clockSinkOff); i++ {
		cd.clockSinkOff[i] += cd.clockSinkOff[i-1]
	}
	cd.clockSinkCells = make([]netlist.CellID, total)
	fill := make([]int32, len(c.Nets))
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			base := cd.clockSinkOff[cell.Clock-1]
			cd.clockSinkCells[base+fill[cell.Clock-1]] = cell.ID
			fill[cell.Clock-1]++
		}
	}
}

// clockSinksOf returns the flip-flops clocked by net id.
func (cd *Compiled) clockSinksOf(id netlist.NetID) []netlist.CellID {
	return cd.clockSinkCells[cd.clockSinkOff[id-1]:cd.clockSinkOff[id]]
}

// buildArcIndex lays the timing arcs out net by net: the combinational
// cell driving a net owns two slots per input pin. Flip-flops, whose
// outputs are launched rather than evaluated, own none.
func (cd *Compiled) buildArcIndex() {
	c := cd.C
	cd.arcOff = make([]int32, len(c.Nets)+1)
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet {
			cd.arcOff[cell.Out] = int32(2 * len(cell.In))
		}
	}
	for i := 1; i < len(cd.arcOff); i++ {
		cd.arcOff[i] += cd.arcOff[i-1]
	}
}

// arcs returns the length of a per-arc slab.
func (cd *Compiled) arcs() int { return int(cd.arcOff[len(cd.arcOff)-1]) }

// arcSlot returns the slab slot of the arc from input pin of the cell
// driving out, switching its output in direction dOut.
func (cd *Compiled) arcSlot(out netlist.NetID, pin, dOut int) int32 {
	return cd.arcOff[out-1] + int32(pin*2+dOut)
}

// forFanout calls mark on every line whose timing reads net directly:
// the outputs of the cells it feeds (a flip-flop's D pin ends the path
// instead) and, through launch, of the flip-flops it clocks.
func (cd *Compiled) forFanout(net netlist.NetID, mark func(netlist.NetID)) {
	for _, ref := range cd.C.Net(net).Fanout {
		if sink := cd.C.Cell(ref.Cell); sink.Kind != netlist.DFF && sink.Out != netlist.NoNet {
			mark(sink.Out)
		}
	}
	for _, dff := range cd.clockSinksOf(net) {
		if out := cd.C.Cell(dff).Out; out != netlist.NoNet {
			mark(out)
		}
	}
}

// Matches reports whether the snapshot's compile key covers the given
// options, i.e. a session with these options may share the snapshot.
func (cd *Compiled) Matches(opts Options) bool {
	opts = opts.withDefaults()
	return cd.poCap == opts.POCap && cd.piModel == opts.PiModel
}

// Revision returns the design revision the snapshot was compiled at.
func (cd *Compiled) Revision() uint64 { return cd.rev }

// KeyString renders the compile key (plus the revision stamp) as a
// stable human-readable identifier, for the introspection plane's
// per-revision session listing. Not a hash: purely descriptive.
func (cd *Compiled) KeyString() string {
	return fmt.Sprintf("rev=%d pocap=%g pimodel=%t", cd.rev, cd.poCap, cd.piModel)
}

// SetRevision stamps the design revision (API layer bookkeeping; call
// before the snapshot is shared, never after).
func (cd *Compiled) SetRevision(rev uint64) { cd.rev = rev }

// buildRow builds the electrical summary of net id into its info row.
// The loads are summed in one fixed order — wire cap, fanout pin caps in
// fanout order, the PO pad, then clock-pin caps in cell order — so a row
// Derive rebuilds is bit-equal to the one Compile builds.
func (cd *Compiled) buildRow(id netlist.NetID) error {
	c := cd.C
	n := c.Net(id)
	inf := netInfo{
		baseCap:  n.Par.CWire,
		cwire:    n.Par.CWire,
		rwire:    n.Par.RWire,
		sumCc:    n.Par.TotalCoupling(),
		sizeMult: 1,
	}
	if n.Driver != netlist.NoCell {
		drv := c.Cell(n.Driver)
		inf.sizeMult = cd.Siz.Mult(c, drv)
		inf.driverKind = drv.Kind
		inf.driverNIn = len(drv.In)
	} else if n.IsClock {
		inf.sizeMult = cd.Siz.ClockBufMult
	}
	for _, pr := range n.Fanout {
		sink := c.Cell(pr.Cell)
		pinCap := ccc.DFFDataCap(cd.Proc, cd.Siz)
		if sink.Kind != netlist.DFF {
			var err error
			if pinCap, err = ccc.InputCap(cd.Proc, cd.Siz, sink.Kind, len(sink.In), cd.Siz.Mult(c, sink)); err != nil {
				return err
			}
		}
		inf.baseCap += pinCap
		if d := cd.sink.At(pr.Cell, pr.Pin); d > inf.maxSinkElmore {
			inf.maxSinkElmore = d
		}
	}
	if n.IsPO {
		inf.baseCap += cd.poCap
		if n.Par.POWireDelay > inf.maxSinkElmore {
			inf.maxSinkElmore = n.Par.POWireDelay
		}
	}
	for _, dff := range cd.clockSinksOf(id) {
		inf.baseCap += ccc.DFFClockCap(cd.Proc, cd.Siz)
		if d := cd.sink.ClockDelay[dff]; d > inf.maxSinkElmore {
			inf.maxSinkElmore = d
		}
	}
	cd.info[id-1] = inf
	return nil
}

func (cd *Compiled) buildEndpoints() {
	c := cd.C
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		cd.endpoints = append(cd.endpoints, endpointRef{
			net: cell.In[0], cell: cell.ID, extra: cd.sink.At(cell.ID, 0),
		})
	}
	for _, po := range c.POs {
		cd.endpoints = append(cd.endpoints, endpointRef{
			net: po, cell: netlist.NoCell, extra: c.Net(po).Par.POWireDelay,
		})
	}
	if cd.piModel {
		// π-model arrivals are already measured at the receiving end of
		// the wire; the Elmore endpoint extras would double-count.
		for i := range cd.endpoints {
			cd.endpoints[i].extra = 0
		}
	}
}

// NewSession binds per-run mutable state (best-case arc cache, pass
// frontiers, work tallies, replay capture, telemetry) to a shared
// snapshot. Sessions are independent: any number may run concurrently
// over one Compiled, each tallying the Info of its own evaluator calls,
// so the per-run counters (Result.ArcEvaluations, PassStats) stay
// correct under concurrency. opts must satisfy cd.Matches; the
// session-only options (Workers, Tier0, ...) are free.
func NewSession(cd *Compiled, calc delaycalc.InfoEvaluator, opts Options) (*Engine, error) {
	if opts.AttributionTopK < 0 {
		return nil, fmt.Errorf("core: NewSession: AttributionTopK %d is negative", opts.AttributionTopK)
	}
	opts = opts.withDefaults()
	if !cd.Matches(opts) {
		return nil, fmt.Errorf("core: NewSession: options do not match the compiled snapshot (POCap/PiModel differ); recompile")
	}
	e := &Engine{
		Compiled:    cd,
		Calc:        calc,
		opts:        opts,
		tier0Margin: tier0Margin,
		m:           newEngineMetrics(opts.Metrics),
		trace:       opts.Trace,
		created:     time.Now(),
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	e.m.workers.Set(float64(workers))
	e.bcs = make([]bcsEntry, cd.arcs())
	return e, nil
}
