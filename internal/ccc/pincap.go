package ccc

import (
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
)

// PinCapFunc returns the sink-pin capacitance function for a lowered
// circuit, suitable for layout extraction: combinational pins get their
// transistor gate capacitance (scaled by Mult), DFF data and clock pins
// get the flip-flop constants. Unknown kinds report a conservative unit
// inverter load rather than failing, because extraction runs before
// timing validates the library.
func PinCapFunc(c *netlist.Circuit, p device.Process, s Sizing) func(netlist.PinRef) float64 {
	invCap := p.CgPerWidth * (s.WnUnit + s.WpUnit)
	return func(pr netlist.PinRef) float64 {
		cell := c.Cell(pr.Cell)
		if cell.Kind == netlist.DFF {
			if pr.Pin == netlist.ClockPinIndex {
				return DFFClockCap(p, s)
			}
			return DFFDataCap(p, s)
		}
		v, err := InputCap(p, s, cell.Kind, len(cell.In), s.Mult(c, cell))
		if err != nil {
			return invCap
		}
		return v
	}
}
