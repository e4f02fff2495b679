// Package noise estimates functional crosstalk — the glitch a switching
// aggressor injects onto a QUIET victim line — using the same
// capacitive-divider physics as the delay model (paper §2) and the same
// per-line quiescent-time reasoning as the timing analyses. The paper's
// introduction separates this functional impact (refs [1], [2]) from
// the delay impact it then focuses on; this package supplies the
// companion check a user of the timer expects.
//
// Model: a victim held at a rail by its driver with effective holding
// resistance R sees, for an instantaneous aggressor step of VDD through
// coupling capacitance Cc against grounded capacitance Cg,
//
//	Vpeak ≈ VDD · Cc/(Cc+Cg) · shield(R·(Cc+Cg), slew)
//
// where the shielding factor accounts for the driver bleeding the
// glitch away while the aggressor edge lasts. A glitch is dangerous
// when it exceeds the device threshold (it can propagate and, per the
// paper's references, flip latches).
package noise

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"xtalksta/internal/ccc"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
)

// NetNoise is the glitch estimate for one victim net.
type NetNoise struct {
	Net string
	// Peak is the estimated worst glitch amplitude in volts.
	Peak float64
	// Margin is the noise margin (device threshold).
	Margin float64
	// AggressorCc is the total coupling capacitance that can inject.
	AggressorCc float64
	// Failing reports Peak > Margin.
	Failing bool
}

// Report is the whole-circuit noise view.
type Report struct {
	Nets []NetNoise // sorted by Peak descending
}

// Failing returns the nets whose glitch exceeds the margin.
func (r *Report) Failing() []NetNoise {
	var out []NetNoise
	for _, n := range r.Nets {
		if n.Failing {
			out = append(out, n)
		}
	}
	return out
}

// Render writes the top-k noisiest nets.
func (r *Report) Render(w io.Writer, k int) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "crosstalk noise report — %d nets, %d above margin\n", len(r.Nets), len(r.Failing()))
	fmt.Fprintf(&sb, "%-20s %10s %10s %12s %8s\n", "Victim", "Peak [V]", "Margin", "ΣCc [fF]", "Status")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 64))
	for i, n := range r.Nets {
		if i >= k {
			break
		}
		status := "ok"
		if n.Failing {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%-20s %10.3f %10.3f %12.2f %8s\n",
			n.Net, n.Peak, n.Margin, n.AggressorCc*1e15, status)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Options tunes the analysis.
type Options struct {
	// AggSlew is the assumed aggressor edge time used by the shielding
	// factor (default 100 ps; 0 keeps the default, negative disables
	// shielding, i.e. assumes the paper's instantaneous step).
	AggSlew float64
}

// Analyze estimates the worst-case glitch on every driven net of a
// lowered, extracted circuit.
func Analyze(c *netlist.Circuit, p device.Process, siz ccc.Sizing, lib *device.Library, opts Options) (*Report, error) {
	slew := opts.AggSlew
	if slew == 0 {
		slew = 100e-12
	}
	margin := p.VtN
	rep := &Report{}
	pinCap := ccc.PinCapFunc(c, p, siz)
	for _, n := range c.Nets {
		if n.Driver == netlist.NoCell {
			continue // PI pads are driven off-chip; out of scope
		}
		sumCc := n.Par.TotalCoupling()
		if sumCc == 0 {
			continue
		}
		drv := c.Cell(n.Driver)
		if drv.Kind == netlist.DFF {
			continue // Q drivers modeled as black boxes
		}
		cg := n.Par.CWire
		for _, pr := range n.Fanout {
			cg += pinCap(pr)
		}
		mult := siz.Mult(c, drv) // the cell's size, and the clock-buffer factor on clock nets
		selfCap, err := ccc.OutputDrainCap(p, siz, drv.Kind, len(drv.In), mult)
		if err != nil {
			return nil, err
		}
		cg += selfCap
		// Holding resistance of the quiet driver.
		rdrv, err := ccc.DriveResistance(lib, siz, drv.Kind, len(drv.In), mult)
		if err != nil {
			return nil, err
		}
		divider := p.VDD * sumCc / (sumCc + cg)
		peak := divider
		if slew > 0 {
			// First-order shielding: the driver discharges the glitch
			// with time constant τ = R·(Cc+Cg) while the aggressor edge
			// lasts; the classic peak reduction is τ/(τ+slew)-like.
			tau := rdrv * (sumCc + cg)
			peak = divider * tau / (tau + slew)
		}
		rep.Nets = append(rep.Nets, NetNoise{
			Net:         n.Name,
			Peak:        peak,
			Margin:      margin,
			AggressorCc: sumCc,
			Failing:     peak > margin,
		})
	}
	sort.Slice(rep.Nets, func(i, j int) bool {
		if rep.Nets[i].Peak != rep.Nets[j].Peak {
			return rep.Nets[i].Peak > rep.Nets[j].Peak
		}
		return rep.Nets[i].Net < rep.Nets[j].Net
	})
	if math.IsNaN(margin) {
		return nil, fmt.Errorf("noise: invalid device threshold")
	}
	return rep, nil
}
