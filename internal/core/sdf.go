package core

import (
	"bufio"
	"fmt"
	"io"

	"xtalksta/internal/netlist"
)

// ExportSDF writes a Standard Delay Format annotation of the circuit:
// one IOPATH entry per timing arc with (min:typ:max) delays, where typ
// is the best-case (coupling ignored) delay and max the
// permanent-coupling worst case — the bracket the paper's analyses
// tighten. Downstream gate-level simulators consume this directly.
//
// The input slew is fixed at the engine's PI slew (SDF has no
// slew-dependent model); per-instance loads come from the extracted
// parasitics.
func (e *Engine) ExportSDF(w io.Writer, design string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(DELAYFILE\n")
	fmt.Fprintf(bw, "  (SDFVERSION \"3.0\")\n")
	fmt.Fprintf(bw, "  (DESIGN \"%s\")\n", design)
	fmt.Fprintf(bw, "  (TIMESCALE 1ns)\n")
	ns := func(d float64) string { return fmt.Sprintf("%.4f", d*1e9) }
	for _, cell := range e.C.Cells {
		if cell.Kind == netlist.DFF {
			continue
		}
		inf := &e.info[cell.Out-1]
		fmt.Fprintf(bw, "  (CELL (CELLTYPE \"%s%d\") (INSTANCE %s)\n    (DELAY (ABSOLUTE\n",
			cell.Kind, len(cell.In), cell.Name)
		for pin := range cell.In {
			for dOut := 0; dOut < 2; dOut++ {
				var delay [2]float64 // best case, worst case
				for i, mode := range [2]Mode{BestCase, WorstCase} {
					grounded, cc := modeLoad(mode, inf)
					res, err := e.Calc.Eval(e.arcRequest(cell, pin, dOut, piSlew, grounded, cc, false))
					if err != nil {
						return fmt.Errorf("core: SDF export %s pin %d: %w", cell.Name, pin, err)
					}
					delay[i] = res.Delay
				}
				lo, hi := delay[0], delay[1]
				if hi < lo {
					lo, hi = hi, lo
				}
				fmt.Fprintf(bw, "      (IOPATH in%d out (%s:%s:%s))\n",
					pin, ns(lo), ns(lo), ns(hi))
			}
		}
		fmt.Fprintf(bw, "    ))\n  )\n")
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}
