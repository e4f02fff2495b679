// Command reproduce runs the paper's complete evaluation — Tables 1–3,
// the Fig. 1 illustration, the wire-vs-coupling text comparison, the
// static-doubled-unsoundness demonstration and the golden path
// validation — and writes an EXPERIMENTS.md-style markdown report to
// stdout.
//
//	go run ./cmd/reproduce > EXPERIMENTS.md    # the paper's full sizes
//	go run ./cmd/reproduce -scale 0.05         # quick reduced-size run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"xtalksta"
	"xtalksta/internal/device"
	"xtalksta/internal/figone"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/obs/httpserve"
)

func main() {
	var (
		scale  = flag.Float64("scale", 1, "circuit size scale in (0,1]; 1 (the default) = the paper's cell counts (17.9k/23.9k/20.8k cells)")
		golden = flag.Bool("golden", true, "run the golden path validation per table")
		tier0  = flag.Bool("tier0", true, "tiered delay evaluation: analytic bounds skip provably non-critical exact evaluations (bit-identical results; ignored under Esperance, Windows and ECO re-analysis)")

		serveObs  = flag.String("serve-obs", "", "serve the live introspection plane (/metrics, /debug/pprof/*, /debug/obs/*) on this address while the evaluation runs")
		eventsOut = flag.String("events", "", "append structured JSONL analysis/pass events to this file")
	)
	flag.Parse()

	// Telemetry plumbing for the introspection flags: one registry and
	// (optionally) one event log shared by every run below.
	var reg *xtalksta.MetricsRegistry
	if *serveObs != "" {
		reg = xtalksta.NewMetricsRegistry()
	}
	var events *xtalksta.EventLog
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		events = xtalksta.NewEventLog(f)
		if reg == nil {
			reg = xtalksta.NewMetricsRegistry()
		}
		events.AttachCounter(reg.Counter(obs.MEventsEmitted))
	}
	if *serveObs != "" {
		srv := httpserve.New(reg)
		if err := srv.Start(*serveObs); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", srv.Addr())
	}
	aopts := xtalksta.AnalysisOptions{Metrics: reg, Events: events, Tier0: *tier0}

	bopts := xtalksta.Defaults()
	bopts.Layout.Metrics = reg
	bopts.Calc.Metrics = reg

	fmt.Printf("# Experiments: paper vs. measured\n\n")
	fmt.Printf("Generated by `go run ./cmd/reproduce -scale %g` on %s.\n\n", *scale, time.Now().Format("2006-01-02"))
	fmt.Printf("Circuits are synthetic ISCAS89-class stand-ins at scale %g of the paper's\n", *scale)
	fmt.Printf("cell counts (see DESIGN.md §2 for the substitution rationale). Absolute\n")
	fmt.Printf("delays differ from the paper's 0.5 µm silicon; the comparison targets the\n")
	fmt.Printf("*shape*: ordering of the five methods, relative gaps, runtime ratios.\n\n")

	// Tables 1-3.
	for i, preset := range []xtalksta.Preset{xtalksta.S35932, xtalksta.S38417, xtalksta.S38584} {
		d, err := xtalksta.GeneratePreset(preset, *scale, bopts)
		if err != nil {
			log.Fatal(err)
		}
		st, err := d.Stats()
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("Table %d: %s-like (%d cells, %d FFs, depth %d; paper: full-size circuit)",
			i+1, preset, st.Cells, st.DFFs, st.LogicDepth)
		table, err := d.PaperTableOpts(title, *golden, aopts)
		if err != nil {
			log.Fatal(err)
		}
		if err := table.Markdown(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if v := table.CheckShape(0.05); len(v) > 0 {
			fmt.Printf("**SHAPE VIOLATIONS:**\n\n")
			for _, s := range v {
				fmt.Printf("- %s\n", s)
			}
			fmt.Println()
		} else {
			fmt.Printf("Shape check: PASS (best < doubled, best < worst, iter ≤ one-step ≤ worst")
			if *golden {
				fmt.Printf(", golden ≤ worst")
			}
			fmt.Printf(").\n\n")
		}
	}

	// FIG1.
	fmt.Printf("### Fig. 1: coupling illustration\n\n")
	lib := device.NewLibrary(device.Generic05um(), 0)
	fig, err := figone.Waveforms(lib, 60e-15, 60e-15, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("| Quantity | Measured |\n|---|---:|\n")
	fmt.Printf("| victim delay, quiet aggressor | %.3f ns |\n", fig.QuietDelay*1e9)
	fmt.Printf("| victim delay, opposite-switching aggressor (worst alignment) | %.3f ns |\n", fig.CoupledDelay*1e9)
	fmt.Printf("| pushout | %.3f ns (%.0f%%) |\n\n",
		(fig.CoupledDelay-fig.QuietDelay)*1e9, 100*(fig.CoupledDelay/fig.QuietDelay-1))

	fmt.Printf("Alignment sweep (victim delay vs aggressor switch time):\n\n")
	sweep, err := figone.AlignmentSweep(lib, 60e-15, 60e-15, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("| agg time [ns] | victim delay [ns] |\n|---:|---:|\n")
	for _, pt := range sweep {
		fmt.Printf("| %.2f | %.3f |\n", pt.AggressorTime*1e9, pt.VictimDelay*1e9)
	}
	fmt.Println()

	// TXT2: static doubled unsound (simultaneous bus).
	fmt.Printf("### §6 claim: static-doubled is not a worst case\n\n")
	bus := busCircuit()
	db, err := xtalksta.FromExtracted(bus, xtalksta.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	busOpts := aopts
	busOpts.Mode = xtalksta.StaticDoubled
	dbl, err := db.Analyze(busOpts)
	if err != nil {
		log.Fatal(err)
	}
	busOpts.Mode = xtalksta.WorstCase
	worst, err := db.Analyze(busOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Simultaneous 8-bit bus: static-doubled %.3f ns vs active coupling model %.3f ns\n", dbl.LongestPath*1e9, worst.LongestPath*1e9)
	fmt.Printf("→ the classical treatment underestimates by %.1f%%.\n\n", (worst.LongestPath/dbl.LongestPath-1)*100)
}

// busCircuit builds the simultaneous 8-bit bus used by the
// static-doubled demonstration (shared with examples/busrouting).
func busCircuit() *netlist.Circuit {
	c := netlist.New("bus8")
	const bits = 8
	for bit := 0; bit < bits; bit++ {
		in := c.AddNet(fmt.Sprintf("IN%d", bit))
		c.MarkPI(in)
		busNet := c.AddNet(fmt.Sprintf("BUS%d", bit))
		if _, err := c.AddCell(fmt.Sprintf("drv%d", bit), netlist.INV, []netlist.NetID{in}, busNet); err != nil {
			log.Fatal(err)
		}
		out := c.AddNet(fmt.Sprintf("OUT%d", bit))
		rcv, err := c.AddCell(fmt.Sprintf("rcv%d", bit), netlist.INV, []netlist.NetID{busNet}, out)
		if err != nil {
			log.Fatal(err)
		}
		c.MarkPO(out)
		c.Net(busNet).Par = netlist.Parasitics{
			CWire: 120e-15, RWire: 42,
			SinkWireDelay: map[netlist.PinRef]float64{{Cell: rcv, Pin: 0}: 42 * 120e-15 / 2},
		}
		c.Net(out).Par = netlist.Parasitics{CWire: 10e-15, SinkWireDelay: map[netlist.PinRef]float64{}}
	}
	for bit := 0; bit < bits-1; bit++ {
		a, _ := c.NetByName(fmt.Sprintf("BUS%d", bit))
		nb, _ := c.NetByName(fmt.Sprintf("BUS%d", bit+1))
		a.Par.Couplings = append(a.Par.Couplings, netlist.Coupling{Other: nb.ID, C: 72e-15})
		nb.Par.Couplings = append(nb.Par.Couplings, netlist.Coupling{Other: a.ID, C: 72e-15})
	}
	return c
}
