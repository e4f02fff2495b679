// Package ccc expands the primitive library cells (INV, NAND, NOR) into
// their transistor-level channel-connected components and builds the
// per-timing-arc stage circuits that the delay calculator simulates —
// the paper's §3 transistor-level gate model. Flip-flops are sequential
// black boxes characterized by constants.
package ccc

import (
	"fmt"

	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/spice"
	"xtalksta/internal/waveform"
)

// Sizing fixes the transistor geometries of the library ("the gates are
// sized", paper §6). Series stacks are widened by the stack depth so
// every gate has roughly the inverter's drive resistance.
type Sizing struct {
	WnUnit, WpUnit float64 // inverter NMOS / PMOS widths
	L              float64 // channel length
	// ClockBufMult scales clock-tree buffers (they drive long, heavily
	// loaded nets).
	ClockBufMult float64
}

// DefaultSizing returns the 0.5 µm library sizing.
func DefaultSizing(p device.Process) Sizing {
	return Sizing{
		WnUnit:       2e-6,
		WpUnit:       5e-6,
		L:            p.Lmin,
		ClockBufMult: 4,
	}
}

// Mult returns the drive-strength multiplier of a combinational cell of
// c: its Size (1 when unset), scaled by ClockBufMult when it drives a
// clock net. Timing, extraction and the golden path simulator all size
// cells by this one rule.
func (s Sizing) Mult(c *netlist.Circuit, cell *netlist.Cell) float64 {
	mult := 1.0
	if cell.Size > 0 {
		mult = cell.Size
	}
	if cell.Out != netlist.NoNet && c.Net(cell.Out).IsClock {
		mult *= s.ClockBufMult
	}
	return mult
}

// deviceWidths returns the per-transistor N and P widths of a cell.
func (s Sizing) deviceWidths(kind netlist.GateKind, nin int) (wn, wp float64, err error) {
	switch kind {
	case netlist.INV:
		return s.WnUnit, s.WpUnit, nil
	case netlist.NAND:
		return s.WnUnit * float64(nin), s.WpUnit, nil
	case netlist.NOR:
		return s.WnUnit, s.WpUnit * float64(nin), nil
	default:
		return 0, 0, fmt.Errorf("ccc: kind %s has no transistor topology (lower the netlist first)", kind)
	}
}

// InputCap returns the input-pin capacitance of a primitive cell: the
// gate capacitance of the N and P transistors tied to the pin.
func InputCap(p device.Process, s Sizing, kind netlist.GateKind, nin int, sizeMult float64) (float64, error) {
	switch kind {
	case netlist.DFF:
		return DFFDataCap(p, s), nil
	}
	wn, wp, err := s.deviceWidths(kind, nin)
	if err != nil {
		return 0, err
	}
	if sizeMult <= 0 {
		sizeMult = 1
	}
	return p.CgPerWidth * (wn + wp) * sizeMult, nil
}

// OutputDrainCap returns the junction capacitance a cell contributes to
// its own output node.
func OutputDrainCap(p device.Process, s Sizing, kind netlist.GateKind, nin int, sizeMult float64) (float64, error) {
	switch kind {
	case netlist.DFF:
		// Q driver modeled as an inverter-class output.
		return p.CdPerWidth * (s.WnUnit + s.WpUnit), nil
	}
	wn, wp, err := s.deviceWidths(kind, nin)
	if err != nil {
		return 0, err
	}
	if sizeMult <= 0 {
		sizeMult = 1
	}
	switch kind {
	case netlist.NAND:
		// All PMOS drains and the top NMOS drain sit on the output.
		return p.CdPerWidth * (float64(nin)*wp + wn) * sizeMult, nil
	case netlist.NOR:
		return p.CdPerWidth * (wp + float64(nin)*wn) * sizeMult, nil
	default: // INV
		return p.CdPerWidth * (wn + wp) * sizeMult, nil
	}
}

// Flip-flop timing constants for the 0.5 µm library. The DFF is a
// black box: clock-to-Q delay launches paths, the data pin is a load,
// setup is reported but not part of the longest-path number (matching
// the paper, which reports the longest path delay).

// DFFClkToQ is the clock-to-output delay.
func DFFClkToQ() float64 { return 300e-12 }

// DFFSetup is the setup time at the data pin.
func DFFSetup() float64 { return 150e-12 }

// DFFDataCap returns the data-pin capacitance.
func DFFDataCap(p device.Process, s Sizing) float64 {
	// Transmission gate + inverter: roughly two unit gate loads.
	return 2 * p.CgPerWidth * (s.WnUnit + s.WpUnit) / 2
}

// DFFClockCap returns the clock-pin capacitance.
func DFFClockCap(p device.Process, s Sizing) float64 {
	return 2 * p.CgPerWidth * (s.WnUnit + s.WpUnit) / 2
}

// Stage is the spice circuit for one timing arc: the driving cell's
// transistor network with one switching input, side inputs held at
// their non-controlling values, and a lumped load at the output.
type Stage struct {
	Ckt     *spice.Circuit
	In, Out spice.NodeID
	// Far is the receiving end of the wire π-model; equal to Out for
	// lumped stages (RWire = 0).
	Far spice.NodeID
	// InSource is the switching-input source; the caller owns its
	// timing.
	InSource *spice.RampSource
	// InitialV seeds the DC solve.
	InitialV map[spice.NodeID]float64
	// OutInitial and OutFinal are the output rail values for the arc.
	OutInitial, OutFinal float64
}

// BuildStage constructs the stage circuit for (kind, nin) with
// switching input `pin` producing an output transition in direction
// outDir into total grounded load cLoad. sizeMult scales the whole
// cell (used for clock buffers). The returned stage still needs
// transient options (and, for coupling, an Event) from the caller.
//
// Pin convention for series stacks: pin 0 is the transistor closest to
// the output; higher pins sit deeper in the stack.
func BuildStage(lib *device.Library, s Sizing, kind netlist.GateKind, nin, pin int,
	outDir waveform.Direction, inSlew, cLoad, sizeMult float64) (*Stage, error) {
	return BuildStageRC(lib, s, kind, nin, pin, outDir, inSlew, cLoad, 0, 0, sizeMult)
}

// BuildStageRC is BuildStage with a wire π-model: cNear loads the
// driver output directly, rWire connects it to a far node carrying
// cFar — the resistive-shielding configuration the paper's §2 mentions
// as the model's open limitation ("restricted to lumped capacitances").
// The lumped model is the rWire = 0 special case; with rWire > 0, the
// coupling event and the delay measurement happen at the far (receiver)
// node.
func BuildStageRC(lib *device.Library, s Sizing, kind netlist.GateKind, nin, pin int,
	outDir waveform.Direction, inSlew, cNear, rWire, cFar, sizeMult float64) (*Stage, error) {

	if pin < 0 || pin >= nin {
		return nil, fmt.Errorf("ccc: pin %d out of range for %d-input %s", pin, nin, kind)
	}
	if sizeMult <= 0 {
		sizeMult = 1
	}
	p := lib.Proc
	if _, _, err := s.deviceWidths(kind, nin); err != nil {
		return nil, err
	}

	ckt := spice.NewCircuit()
	out := ckt.Node("out")
	vdd, err := ckt.Rail("vdd", p.VDD)
	if err != nil {
		return nil, err
	}

	// The switching input: for an inverting gate, a rising output needs
	// a falling input. Inputs and rails are driven nodes: they carry no
	// unknown, so an inverter arc solves a single-unknown system.
	var inV0, inV1 float64
	if outDir == waveform.Rising {
		inV0, inV1 = p.VDD, 0
	} else {
		inV0, inV1 = 0, p.VDD
	}
	if inSlew <= 0 {
		inSlew = 1e-12
	}
	src := &spice.RampSource{T0: 0, TR: inSlew, V0: inV0, V1: inV1}
	in, err := ckt.DriveNode("in", src)
	if err != nil {
		return nil, err
	}

	// Side inputs held at the non-controlling value so the switching
	// input alone controls the output (single-input-switching, the
	// standard STA arc condition).
	sideNode := func(i int, v float64) spice.NodeID {
		n, err := ckt.Rail(fmt.Sprintf("side%d", i), v)
		if err != nil {
			panic(err) // unique names by construction
		}
		return n
	}
	gateNode := make([]spice.NodeID, nin)
	for i := 0; i < nin; i++ {
		if i == pin {
			gateNode[i] = in
			continue
		}
		switch kind {
		case netlist.NAND, netlist.INV:
			gateNode[i] = sideNode(i, p.VDD) // NAND side inputs high
		case netlist.NOR:
			gateNode[i] = sideNode(i, 0) // NOR side inputs low
		}
	}

	if err := AddTransistors(ckt, lib, s, kind, gateNode, out, vdd, sizeMult, "m"); err != nil {
		return nil, err
	}

	// Near-end load: external near cap plus the cell's own junctions.
	selfCap, err := OutputDrainCap(p, s, kind, nin, sizeMult)
	if err != nil {
		return nil, err
	}
	if err := ckt.AddCapacitor("cload", out, spice.Ground, cNear+selfCap); err != nil {
		return nil, err
	}
	far := out
	if rWire > 0 {
		far = ckt.Node("far")
		if err := ckt.AddResistor("rw", out, far, rWire); err != nil {
			return nil, err
		}
		if err := ckt.AddCapacitor("cfar", far, spice.Ground, cFar); err != nil {
			return nil, err
		}
	} else if cFar > 0 {
		if err := ckt.AddCapacitor("cfar", out, spice.Ground, cFar); err != nil {
			return nil, err
		}
	}

	st := &Stage{
		Ckt:      ckt,
		In:       in,
		Out:      out,
		Far:      far,
		InSource: src,
		InitialV: map[spice.NodeID]float64{},
	}
	if outDir == waveform.Rising {
		st.OutInitial, st.OutFinal = 0, p.VDD
	} else {
		st.OutInitial, st.OutFinal = p.VDD, 0
	}
	st.InitialV[out] = st.OutInitial
	if far != out {
		st.InitialV[far] = st.OutInitial
	}
	return st, nil
}

// DriveResistance estimates the effective switching resistance of the
// cell (VDD / (2·Isat) of the weaker network), used only to pick
// simulation windows and never for delays.
func DriveResistance(lib *device.Library, s Sizing, kind netlist.GateKind, nin int, sizeMult float64) (float64, error) {
	if sizeMult <= 0 {
		sizeMult = 1
	}
	p := lib.Proc
	wn, wp, err := s.deviceWidths(kind, nin)
	if err != nil {
		return 0, err
	}
	am := device.AnalyticModel{Type: device.NMOS, Geom: device.Geometry{W: wn * sizeMult, L: s.L}, Proc: p}
	idsN := am.Ids(p.VDD, p.VDD)
	ap := device.AnalyticModel{Type: device.PMOS, Geom: device.Geometry{W: wp * sizeMult, L: s.L}, Proc: p}
	idsP := -ap.Ids(-p.VDD, -p.VDD)
	stackN, stackP := 1.0, 1.0
	if kind == netlist.NAND {
		stackN = float64(nin)
	}
	if kind == netlist.NOR {
		stackP = float64(nin)
	}
	rn := p.VDD / (2 * idsN / stackN)
	rp := p.VDD / (2 * idsP / stackP)
	if rn > rp {
		return rn, nil
	}
	return rp, nil
}
