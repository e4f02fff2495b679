package netlist

import (
	"fmt"
	"sort"
)

// NetID identifies a net within a Circuit. The zero value is invalid;
// valid IDs are >= 1 so that forgotten assignments surface early.
//
// IDs are dense 32-bit integers: they double as array indices in the
// compiled SoA/CSR structures (core.Compiled, layout.Layout), where a
// 64-bit id would double the footprint of every adjacency array at
// million-net scale. AddNet enforces the width.
type NetID int32

// CellID identifies a cell within a Circuit. Dense and 32-bit for the
// same reason as NetID; AddCell enforces the width.
type CellID int32

// maxIDs is the one-time width guard: a Circuit holds fewer than 2^31
// nets and cells so that NetID/CellID arithmetic (ids, CSR offsets,
// arena links) fits int32 everywhere downstream.
const maxIDs = 1<<31 - 2

// NoCell marks the absence of a driving cell (primary inputs).
const NoCell CellID = -1

// NoNet marks the absence of a net reference.
const NoNet NetID = 0

// PinRef names one input pin of one cell.
type PinRef struct {
	Cell CellID
	Pin  int
}

// ClockPinIndex is the synthetic PinRef.Pin value used for flip-flop
// clock pins (DFF data is pin 0). Clock connectivity lives on
// Cell.Clock rather than Cell.In, but parasitic maps still need a pin
// key for the clock sink.
const ClockPinIndex = 99

// Coupling is one extracted coupling capacitance from a net to a
// specific adjacent net — the data the paper's algorithms consume.
type Coupling struct {
	Other NetID
	C     float64 // farads
}

// Parasitics holds the extracted interconnect data of a net.
type Parasitics struct {
	// CWire is the total grounded wire capacitance (F).
	CWire float64
	// RWire is the total wire resistance (Ω), for reporting.
	RWire float64
	// Couplings lists coupling capacitances to specific adjacent nets.
	Couplings []Coupling
	// SinkWireDelay is the Elmore wire delay (s) from the driver to
	// each sink pin, added on top of the gate delay (paper §2: "wire
	// delays are modeled by the widely used Elmore model").
	SinkWireDelay map[PinRef]float64
	// POWireDelay is the Elmore delay to the primary-output endpoint
	// when the net is a PO.
	POWireDelay float64
}

// TotalCoupling sums all coupling capacitance on the net.
func (p *Parasitics) TotalCoupling() float64 {
	s := 0.0
	for _, c := range p.Couplings {
		s += c.C
	}
	return s
}

// Net is a single electrical node of the gate-level circuit.
type Net struct {
	ID      NetID
	Name    string
	Driver  CellID // NoCell when driven by a primary input
	Fanout  []PinRef
	IsPI    bool
	IsPO    bool
	IsClock bool
	Par     Parasitics
	// InputSlew is the transition time an ECO edit set on a primary
	// input (0 = the analysis default).
	InputSlew float64
}

// Cell is one gate instance.
type Cell struct {
	ID   CellID
	Name string
	Kind GateKind
	In   []NetID
	Out  NetID
	// Clock is the clock net for DFF cells (NoNet when the circuit has
	// no explicit clock tree; the DFF is then ideal).
	Clock NetID
	// Size is the drive-strength multiplier an ECO resize set (0 = 1;
	// see ccc.Sizing.Mult).
	Size float64
}

// Circuit is a gate-level sequential circuit.
type Circuit struct {
	Name  string
	Nets  []*Net  // index = NetID-1
	Cells []*Cell // index = CellID
	PIs   []NetID
	POs   []NetID
	// ClockRoot is the root net of the clock tree, NoNet when absent.
	ClockRoot NetID

	netByName map[string]NetID
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, netByName: make(map[string]NetID)}
}

// Net returns the net with the given ID.
func (c *Circuit) Net(id NetID) *Net { return c.Nets[id-1] }

// Cell returns the cell with the given ID.
func (c *Circuit) Cell(id CellID) *Cell { return c.Cells[id] }

// NetByName looks a net up by name.
func (c *Circuit) NetByName(name string) (*Net, bool) {
	id, ok := c.netByName[name]
	if !ok {
		return nil, false
	}
	return c.Net(id), true
}

// AddNet creates a net with the given name, or returns the existing one.
func (c *Circuit) AddNet(name string) NetID {
	if id, ok := c.netByName[name]; ok {
		return id
	}
	if len(c.Nets) >= maxIDs {
		panic(fmt.Sprintf("netlist: net count exceeds the %d-id limit of the dense int32 layout", maxIDs))
	}
	id := NetID(len(c.Nets) + 1)
	c.Nets = append(c.Nets, &Net{ID: id, Name: name, Driver: NoCell})
	c.netByName[name] = id
	return id
}

// freshNet creates a uniquely named internal net (used by Lower and the
// clock-tree builder).
func (c *Circuit) freshNet(prefix string) NetID {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, len(c.Nets)+i)
		if _, ok := c.netByName[name]; !ok {
			return c.AddNet(name)
		}
	}
}

// MarkPI declares a net as a primary input.
func (c *Circuit) MarkPI(id NetID) {
	n := c.Net(id)
	if !n.IsPI {
		n.IsPI = true
		c.PIs = append(c.PIs, id)
	}
}

// MarkPO declares a net as a primary output.
func (c *Circuit) MarkPO(id NetID) {
	n := c.Net(id)
	if !n.IsPO {
		n.IsPO = true
		c.POs = append(c.POs, id)
	}
}

// AddCell creates a cell driving out from the given inputs. It enforces
// the single-driver rule and the gate's fanin bounds.
func (c *Circuit) AddCell(name string, kind GateKind, in []NetID, out NetID) (CellID, error) {
	if len(in) < kind.MinInputs() || len(in) > kind.MaxInputs() {
		return 0, fmt.Errorf("netlist: cell %s: %s with %d inputs (allowed %d..%d)",
			name, kind, len(in), kind.MinInputs(), kind.MaxInputs())
	}
	outNet := c.Net(out)
	if outNet.Driver != NoCell {
		return 0, fmt.Errorf("netlist: net %s already driven by cell %s",
			outNet.Name, c.Cell(outNet.Driver).Name)
	}
	if outNet.IsPI {
		return 0, fmt.Errorf("netlist: net %s is a primary input and cannot be driven", outNet.Name)
	}
	if len(c.Cells) >= maxIDs {
		return 0, fmt.Errorf("netlist: cell count exceeds the %d-id limit of the dense int32 layout", maxIDs)
	}
	id := CellID(len(c.Cells))
	cell := &Cell{ID: id, Name: name, Kind: kind, In: append([]NetID(nil), in...), Out: out}
	c.Cells = append(c.Cells, cell)
	outNet.Driver = id
	for pin, nid := range cell.In {
		c.Net(nid).Fanout = append(c.Net(nid).Fanout, PinRef{Cell: id, Pin: pin})
	}
	return id, nil
}

// Validate checks structural sanity: every non-PI net is driven, every
// referenced net exists, and the combinational part is acyclic.
func (c *Circuit) Validate() error {
	for _, n := range c.Nets {
		if n.Driver == NoCell && !n.IsPI && !n.IsClock {
			// A floating net with no fanout is tolerated (dangling
			// outputs occur in benchmarks); a floating net that feeds
			// logic is an error.
			if len(n.Fanout) > 0 || n.IsPO {
				return fmt.Errorf("netlist: net %s is used but has no driver and is not a PI", n.Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// launchNets returns the nets where combinational timing paths begin:
// primary inputs and DFF outputs.
func (c *Circuit) launchNets() []NetID {
	var out []NetID
	for _, id := range c.PIs {
		out = append(out, id)
	}
	for _, cell := range c.Cells {
		if cell.Kind == DFF {
			out = append(out, cell.Out)
		}
	}
	return out
}

// LaunchNets exposes the set of nets where paths start (PIs, DFF Q).
func (c *Circuit) LaunchNets() []NetID { return c.launchNets() }

// CaptureCells returns the set of endpoints: DFF data pins map to their
// cells; primary outputs are the other endpoints.
func (c *Circuit) CaptureCells() []CellID {
	var out []CellID
	for _, cell := range c.Cells {
		if cell.Kind == DFF {
			out = append(out, cell.ID)
		}
	}
	return out
}

// TopoOrder returns the combinational cells in topological order
// (inputs before the cells that read them). DFFs act as both sources
// (Q) and sinks (D) and are excluded from the order. An error reports a
// combinational loop.
func (c *Circuit) TopoOrder() ([]CellID, error) {
	// Kahn's algorithm over combinational cells.
	pending := make([]int, len(c.Cells)) // unresolved combinational fanin count
	ready := make([]CellID, 0, len(c.Cells))
	netReady := make([]bool, len(c.Nets)+1)
	for _, id := range c.launchNets() {
		netReady[id] = true
	}
	comb := 0
	for _, cell := range c.Cells {
		if cell.Kind == DFF {
			continue
		}
		comb++
		cnt := 0
		for _, in := range cell.In {
			if !netReady[in] {
				cnt++
			}
		}
		pending[cell.ID] = cnt
		if cnt == 0 {
			ready = append(ready, cell.ID)
		}
	}
	order := make([]CellID, 0, comb)
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		out := c.Cell(id).Out
		if netReady[out] {
			continue
		}
		netReady[out] = true
		for _, pr := range c.Net(out).Fanout {
			fc := c.Cell(pr.Cell)
			if fc.Kind == DFF {
				continue
			}
			pending[pr.Cell]--
			if pending[pr.Cell] == 0 {
				ready = append(ready, pr.Cell)
			}
		}
	}
	if len(order) != comb {
		return nil, fmt.Errorf("netlist: combinational loop detected (%d of %d cells ordered)", len(order), comb)
	}
	return order, nil
}

// Stats summarizes the circuit for reporting.
type Stats struct {
	Cells      int
	DFFs       int
	Nets       int
	PIs, POs   int
	ByKind     map[GateKind]int
	LogicDepth int // longest combinational level count
}

// Stats computes circuit statistics. It returns an error when the
// circuit has a combinational loop.
func (c *Circuit) Stats() (Stats, error) {
	s := Stats{
		Cells: len(c.Cells),
		Nets:  len(c.Nets),
		PIs:   len(c.PIs),
		POs:   len(c.POs),
		ByKind: func() map[GateKind]int {
			m := make(map[GateKind]int)
			for _, cell := range c.Cells {
				m[cell.Kind]++
			}
			return m
		}(),
	}
	s.DFFs = s.ByKind[DFF]
	order, err := c.TopoOrder()
	if err != nil {
		return s, err
	}
	level := make(map[NetID]int)
	for _, id := range c.launchNets() {
		level[id] = 0
	}
	maxLevel := 0
	for _, cid := range order {
		cell := c.Cell(cid)
		lv := 0
		for _, in := range cell.In {
			if l, ok := level[in]; ok && l > lv {
				lv = l
			}
		}
		level[cell.Out] = lv + 1
		if lv+1 > maxLevel {
			maxLevel = lv + 1
		}
	}
	s.LogicDepth = maxLevel
	return s, nil
}

// SortedNetNames returns all net names sorted, mainly for deterministic
// output in tests and the writer.
func (c *Circuit) SortedNetNames() []string {
	names := make([]string, 0, len(c.Nets))
	for _, n := range c.Nets {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}
