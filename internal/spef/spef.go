// Package spef reads and writes the reproduction's parasitic exchange
// format — a simplified SPEF dialect carrying exactly the annotation
// the crosstalk analyses need: per net, the grounded wire capacitance,
// the wire resistance, the Elmore delay to every sink pin, and the
// coupling capacitances to named adjacent nets.
//
// Sink cells are identified by their output net (the `.bench` format
// has no instance names, and output nets are unique per cell, so this
// key survives a netlist round trip). Grammar (line oriented,
// # comments):
//
//	*SPEF xtalksta-1
//	*DESIGN <name>
//	*D_NET <net> <cwire_fF> <rwire_ohm>
//	*PIN <sink-cell-output-net> <pin> <elmore_ps>
//	*PO <elmore_ps>
//	*CC <other-net> <cc_fF>
//	*END
//
// Units are fixed (fF, Ω, ps) to keep files human-readable at circuit
// scale.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"xtalksta/internal/netlist"
)

// Write emits the circuit's parasitics.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF xtalksta-1\n*DESIGN %s\n", c.Name)
	for _, n := range c.Nets {
		if n.Par.CWire == 0 && n.Par.RWire == 0 && len(n.Par.Couplings) == 0 &&
			len(n.Par.SinkWireDelay) == 0 && n.Par.POWireDelay == 0 {
			continue
		}
		fmt.Fprintf(bw, "*D_NET %s %.6g %.6g\n", n.Name, n.Par.CWire*1e15, n.Par.RWire)
		// Deterministic pin order.
		pins := make([]netlist.PinRef, 0, len(n.Par.SinkWireDelay))
		for pr := range n.Par.SinkWireDelay {
			pins = append(pins, pr)
		}
		sort.Slice(pins, func(i, j int) bool {
			if pins[i].Cell != pins[j].Cell {
				return pins[i].Cell < pins[j].Cell
			}
			return pins[i].Pin < pins[j].Pin
		})
		for _, pr := range pins {
			fmt.Fprintf(bw, "*PIN %s %d %.6g\n", c.Net(c.Cell(pr.Cell).Out).Name, pr.Pin, n.Par.SinkWireDelay[pr]*1e12)
		}
		if n.IsPO && n.Par.POWireDelay != 0 {
			fmt.Fprintf(bw, "*PO %.6g\n", n.Par.POWireDelay*1e12)
		}
		for _, cp := range n.Par.Couplings {
			fmt.Fprintf(bw, "*CC %s %.6g\n", c.Net(cp.Other).Name, cp.C*1e15)
		}
		fmt.Fprintf(bw, "*END\n")
	}
	return bw.Flush()
}

// Read annotates an existing circuit from a parasitics file. Net names
// must resolve in the circuit; cell names in *PIN lines likewise, and a
// *PIN must name a pin of that cell that the enclosing net reaches.
// Every number must be finite and non-negative. Any violation is an
// error naming the line. Couplings are validated for symmetry after
// loading.
func Read(r io.Reader, c *netlist.Circuit) error {
	// Cells are keyed by their (unique) output net name.
	cellByOutNet := make(map[string]netlist.CellID, len(c.Cells))
	for _, cell := range c.Cells {
		cellByOutNet[c.Net(cell.Out).Name] = cell.ID
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *netlist.Net
	lineNo := 0
	sawHeader := false
	bad := func(format string, args ...any) error {
		return fmt.Errorf("spef: line %d: "+format, append([]any{lineNo}, args...)...)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "*SPEF":
			sawHeader = true
		case "*DESIGN":
			// informational
		case "*D_NET":
			if len(fields) != 4 {
				return bad("*D_NET wants <net> <cwire_fF> <rwire_ohm>")
			}
			n, ok := c.NetByName(fields[1])
			if !ok {
				return bad("unknown net %q", fields[1])
			}
			var cw, rw float64
			if err := parseValues(fields[2:], &cw, &rw); err != nil {
				return bad("%v", err)
			}
			n.Par = netlist.Parasitics{
				CWire:         cw * 1e-15,
				RWire:         rw,
				SinkWireDelay: make(map[netlist.PinRef]float64),
			}
			cur = n
		case "*PIN":
			if cur == nil {
				return bad("*PIN outside *D_NET")
			}
			if len(fields) != 4 {
				return bad("*PIN wants <cell> <pin> <elmore_ps>")
			}
			cid, ok := cellByOutNet[fields[1]]
			if !ok {
				return bad("no cell drives net %q", fields[1])
			}
			pin, err := strconv.Atoi(fields[2])
			if err != nil {
				return bad("bad pin index %q", fields[2])
			}
			cell := c.Cell(cid)
			switch {
			case pin == netlist.ClockPinIndex && cell.Kind == netlist.DFF:
				if cell.Clock != cur.ID {
					return bad("the clock pin of the flip-flop driving %q is not on net %q", fields[1], cur.Name)
				}
			case pin < 0 || pin >= len(cell.In):
				return bad("the cell driving %q has no input pin %d", fields[1], pin)
			case cell.In[pin] != cur.ID:
				return bad("pin %d of the cell driving %q is not on net %q", pin, fields[1], cur.Name)
			}
			var d float64
			if err := parseValues(fields[3:], &d); err != nil {
				return bad("%v", err)
			}
			cur.Par.SinkWireDelay[netlist.PinRef{Cell: cid, Pin: pin}] = d * 1e-12
		case "*PO":
			if cur == nil {
				return bad("*PO outside *D_NET")
			}
			if len(fields) != 2 {
				return bad("*PO wants <elmore_ps>")
			}
			var d float64
			if err := parseValues(fields[1:], &d); err != nil {
				return bad("%v", err)
			}
			cur.Par.POWireDelay = d * 1e-12
		case "*CC":
			if cur == nil {
				return bad("*CC outside *D_NET")
			}
			if len(fields) != 3 {
				return bad("*CC wants <net> <cc_fF>")
			}
			other, ok := c.NetByName(fields[1])
			if !ok {
				return bad("unknown coupled net %q", fields[1])
			}
			var cc float64
			if err := parseValues(fields[2:], &cc); err != nil {
				return bad("%v", err)
			}
			cur.Par.Couplings = append(cur.Par.Couplings, netlist.Coupling{Other: other.ID, C: cc * 1e-15})
		case "*END":
			cur = nil
		default:
			return bad("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("spef: %w", err)
	}
	if !sawHeader {
		return fmt.Errorf("spef: missing *SPEF header")
	}
	if err := ValidateSymmetry(c); err != nil {
		return err
	}
	c.CompactCouplings()
	return nil
}

// parseValues parses fields into dst in order. Parasitics are finite
// and non-negative: NaN and ±Inf would reach the analyses as silently
// finite delays, and a negative value would fail far from this line.
func parseValues(fields []string, dst ...*float64) error {
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%q is not a finite non-negative number", f)
		}
		*dst[i] = v
	}
	return nil
}

// ValidateSymmetry checks that every coupling has a matching reverse
// entry of equal value — the invariant the extractor guarantees and the
// analyses assume.
func ValidateSymmetry(c *netlist.Circuit) error {
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			other := c.Net(cp.Other)
			found := false
			for _, back := range other.Par.Couplings {
				if back.Other == n.ID && nearly(back.C, cp.C) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("spef: coupling %s→%s (%g F) has no symmetric partner",
					n.Name, other.Name, cp.C)
			}
		}
	}
	return nil
}

func nearly(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9*m+1e-24
}
