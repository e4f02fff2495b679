package core

import (
	"fmt"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
)

// Compiled is the immutable compiled form of one design revision: the
// per-net electrical summaries, topological order and ranks, endpoint
// list, per-phase dataflow dependency graphs and clock-sink index —
// everything an analysis needs that does not change between runs. A Compiled is built once (Compile) and then shared by
// any number of concurrent sessions (NewSession); nothing in it is
// written after Compile returns, so no locking is needed around it.
//
// The snapshot depends on a subset of the analysis options — POCap,
// PiModel and CellSizes feed the net summaries and endpoint extras —
// recorded as the compile key; Matches reports whether a later run can
// reuse the snapshot. The key is compared entry-by-entry (never
// hashed): a collision would silently break the bit-exactness contract.
type Compiled struct {
	C    *netlist.Circuit
	Proc device.Process
	Siz  ccc.Sizing

	info      []netInfo // by NetID-1
	order     []netlist.CellID
	endpoints []endpointRef
	// netRank is the per-net rank of the calculated-neighbor test; see
	// levels.go.
	netRank []int
	// Per-phase dataflow dependency graphs of the sweep executor; see
	// dataflow.go. Immutable: runDataflow copies indeg per pass.
	dfClock, dfMain *dfGraph
	// cc is the SoA coupling adjacency of the whole design (offsets +
	// neighbor/capacitance arrays); netInfo spans index into it. The
	// hot coupling-classification loops scan these flat arrays instead
	// of per-net Coupling slices.
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

	// Compile key (see Matches).
	poCap     float64
	piModel   bool
	cellSizes map[netlist.CellID]float64

	// rev is the design revision the snapshot was compiled at (stamped
	// by the API layer; 0 for standalone engine use).
	rev uint64
}

// Compile builds the immutable snapshot of a circuit under the
// compile-relevant options (POCap, PiModel, CellSizes; everything else
// in opts is per-session and ignored here). The circuit must be lowered
// (only INV, NAND, NOR, DFF cells) and carry extracted parasitics, and
// must not be mutated while the snapshot is alive — the API layer
// guarantees this by copy-on-write editing.
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
	if len(opts.CellSizes) > 0 {
		cd.cellSizes = make(map[netlist.CellID]float64, len(opts.CellSizes))
		for k, v := range opts.CellSizes {
			cd.cellSizes[k] = v
		}
	}
	cd.cc = c.BuildCouplingCSR()
	cd.sink = c.BuildSinkDelayCSR()
	if err := cd.buildNetInfo(); err != nil {
		return nil, err
	}
	cd.buildEndpoints()
	cd.buildDataflow(cd.buildLevels())
	cd.buildClockSinks()
	return cd, nil
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
// The CellSizes maps are compared exactly, per entry.
func (cd *Compiled) Matches(opts Options) bool {
	opts = opts.withDefaults()
	if cd.poCap != opts.POCap || cd.piModel != opts.PiModel {
		return false
	}
	if len(cd.cellSizes) != len(opts.CellSizes) {
		return false
	}
	for k, v := range opts.CellSizes {
		if got, ok := cd.cellSizes[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// Revision returns the design revision the snapshot was compiled at.
func (cd *Compiled) Revision() uint64 { return cd.rev }

// KeyString renders the compile key (plus the revision stamp) as a
// stable human-readable identifier, for the introspection plane's
// per-revision session listing. Not a hash: purely descriptive.
func (cd *Compiled) KeyString() string {
	return fmt.Sprintf("rev=%d pocap=%g pimodel=%t sizes=%d",
		cd.rev, cd.poCap, cd.piModel, len(cd.cellSizes))
}

// SetRevision stamps the design revision (API layer bookkeeping; call
// before the snapshot is shared, never after).
func (cd *Compiled) SetRevision(rev uint64) { cd.rev = rev }

// sizeOf returns the effective drive-strength multiplier of a cell
// under the snapshot's CellSizes.
func (cd *Compiled) sizeOf(cid netlist.CellID) float64 {
	mult := 1.0
	if m, ok := cd.cellSizes[cid]; ok && m > 0 {
		mult = m
	}
	if cd.C.Net(cd.C.Cell(cid).Out).IsClock {
		mult *= cd.Siz.ClockBufMult
	}
	return mult
}

func (cd *Compiled) buildNetInfo() error {
	c := cd.C
	cd.info = make([]netInfo, len(c.Nets))
	for i, n := range c.Nets {
		inf := &cd.info[i]
		inf.baseCap = n.Par.CWire
		inf.cwire = n.Par.CWire
		inf.rwire = n.Par.RWire
		inf.sumCc = n.Par.TotalCoupling()
		inf.ccLo, inf.ccHi = cd.cc.Span(n.ID)
		inf.sizeMult = 1
		if n.Driver != netlist.NoCell {
			inf.sizeMult = cd.sizeOf(n.Driver)
		} else if n.IsClock {
			inf.sizeMult = cd.Siz.ClockBufMult
		}
		if n.Driver != netlist.NoCell {
			drv := c.Cell(n.Driver)
			inf.driverKind = drv.Kind
			inf.driverNIn = len(drv.In)
		}
		// Sink pin loads.
		for _, pr := range n.Fanout {
			sink := c.Cell(pr.Cell)
			var pinCap float64
			var err error
			if sink.Kind == netlist.DFF {
				pinCap = ccc.DFFDataCap(cd.Proc, cd.Siz)
			} else {
				pinCap, err = ccc.InputCap(cd.Proc, cd.Siz, sink.Kind, len(sink.In), cd.sizeOf(sink.ID))
				if err != nil {
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
	}
	// Clock-pin caps: add per DFF to its clock net.
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			inf := &cd.info[cell.Clock-1]
			inf.baseCap += ccc.DFFClockCap(cd.Proc, cd.Siz)
			if d := cd.sink.ClockDelay[cell.ID]; d > inf.maxSinkElmore {
				inf.maxSinkElmore = d
			}
		}
	}
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

// NewSession binds per-run mutable state (delay-calculator scope,
// best-case arc cache, pass frontiers, replay capture, telemetry) to a
// shared snapshot. Sessions are independent: any number may run
// concurrently over one Compiled, each with its own calculator scope so
// the per-run counters (Result.ArcEvaluations, PassStats deltas) stay
// correct under concurrency. opts must satisfy cd.Matches; the
// session-only options (Workers, Windows, Tier0, ...) are free.
func NewSession(cd *Compiled, calc delaycalc.Evaluator, opts Options) (*Engine, error) {
	if opts.AttributionTopK < 0 {
		return nil, fmt.Errorf("core: NewSession: AttributionTopK %d is negative", opts.AttributionTopK)
	}
	opts = opts.withDefaults()
	if !cd.Matches(opts) {
		return nil, fmt.Errorf("core: NewSession: options do not match the compiled snapshot (POCap/PiModel/CellSizes differ); recompile")
	}
	e := &Engine{
		Compiled:    cd,
		Calc:        delaycalc.Scoped(calc),
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
	e.bcs = make([][]bcsEntry, len(cd.C.Nets))
	for _, cell := range cd.C.Cells {
		if cell.Kind != netlist.DFF && cell.Out != netlist.NoNet {
			e.bcs[cell.Out-1] = make([]bcsEntry, 2*len(cell.In))
		}
	}
	return e, nil
}
