// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablations of the reproduction's design choices.
//
// The three table benchmarks run the five analyses on the ISCAS89-class
// benchmark circuits and report the longest-path delays as custom
// metrics (ns_best, ns_doubled, ns_worst, ns_onestep, ns_iter), so
// `go test -bench` output records the table rows. The circuits default
// to a reduced scale so the full suite completes in minutes; set
// XTALKSTA_SCALE=1 to reproduce the paper's full sizes.
package xtalksta_test

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"xtalksta"
	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/figone"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// benchScale returns the circuit scale used by the table benchmarks.
func benchScale() float64 {
	if s := os.Getenv("XTALKSTA_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.03
}

// designCache avoids rebuilding the same extracted design across b.N
// iterations and benchmarks.
var designCache = map[string]*xtalksta.Design{}

func benchDesign(b *testing.B, preset xtalksta.Preset, scale float64) *xtalksta.Design {
	b.Helper()
	key := fmt.Sprintf("%s@%g", preset, scale)
	if d, ok := designCache[key]; ok {
		return d
	}
	d, err := xtalksta.GeneratePreset(preset, scale, xtalksta.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	designCache[key] = d
	return d
}

// runTable executes the five analyses and reports the paper-table
// metrics.
func runTable(b *testing.B, preset xtalksta.Preset) {
	scale := benchScale()
	d := benchDesign(b, preset, scale)
	metric := map[xtalksta.Mode]string{
		xtalksta.BestCase:      "ns_best",
		xtalksta.StaticDoubled: "ns_doubled",
		xtalksta.WorstCase:     "ns_worst",
		xtalksta.OneStep:       "ns_onestep",
		xtalksta.Iterative:     "ns_iter",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range xtalksta.Modes() {
			res, err := d.Analyze(xtalksta.AnalysisOptions{Mode: m})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.LongestPath*1e9, metric[m])
		}
	}
}

// BenchmarkTable1S35932 reproduces Table 1: s35932 (17900 cells at
// scale 1).
func BenchmarkTable1S35932(b *testing.B) { runTable(b, xtalksta.S35932) }

// BenchmarkTable2S38417 reproduces Table 2: s38417 (23922 cells at
// scale 1).
func BenchmarkTable2S38417(b *testing.B) { runTable(b, xtalksta.S38417) }

// BenchmarkTable3S38584 reproduces Table 3: s38584 (20812 cells at
// scale 1).
func BenchmarkTable3S38584(b *testing.B) { runTable(b, xtalksta.S38584) }

// BenchmarkFig1CouplingIllustration reproduces Fig. 1: the victim delay
// with a quiet versus an opposite-switching aggressor, and the worst
// alignment pushout.
func BenchmarkFig1CouplingIllustration(b *testing.B) {
	lib := device.NewLibrary(device.Generic05um(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := figone.Waveforms(lib, 60e-15, 60e-15, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.QuietDelay*1e9, "ns_quiet")
		b.ReportMetric(fig.CoupledDelay*1e9, "ns_coupled")
		b.ReportMetric((fig.CoupledDelay-fig.QuietDelay)*1e9, "ns_pushout")
	}
}

// BenchmarkTextWireVsCoupling reproduces the §6 text comparison: the
// Elmore wire delay on the longest path is much smaller than the
// coupling impact (worst − best).
func BenchmarkTextWireVsCoupling(b *testing.B) {
	d := benchDesign(b, xtalksta.S38417, benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.BestCase})
		if err != nil {
			b.Fatal(err)
		}
		worst, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.WorstCase})
		if err != nil {
			b.Fatal(err)
		}
		iter, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(iter.WireDelayOnLongestPath*1e9, "ns_wire")
		b.ReportMetric((worst.LongestPath-best.LongestPath)*1e9, "ns_coupling_impact")
	}
}

// BenchmarkStaticDoubledUnsound reproduces the §6 argument that the
// classical static-doubled treatment is not a worst case: on a
// simultaneous bus the active model exceeds it.
func BenchmarkStaticDoubledUnsound(b *testing.B) {
	c := busCircuit(b)
	d, err := xtalksta.FromExtracted(c, xtalksta.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbl, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.StaticDoubled})
		if err != nil {
			b.Fatal(err)
		}
		worst, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.WorstCase})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dbl.LongestPath*1e9, "ns_doubled")
		b.ReportMetric(worst.LongestPath*1e9, "ns_active_model")
		b.ReportMetric((worst.LongestPath/dbl.LongestPath-1)*100, "pct_underestimate")
	}
}

// busCircuit mirrors the busrouting example's simultaneous scenario.
func busCircuit(b *testing.B) *netlist.Circuit {
	b.Helper()
	c := netlist.New("bus8")
	const bits = 8
	for bit := 0; bit < bits; bit++ {
		in := c.AddNet(fmt.Sprintf("IN%d", bit))
		c.MarkPI(in)
		bus := c.AddNet(fmt.Sprintf("BUS%d", bit))
		if _, err := c.AddCell(fmt.Sprintf("drv%d", bit), netlist.INV, []netlist.NetID{in}, bus); err != nil {
			b.Fatal(err)
		}
		out := c.AddNet(fmt.Sprintf("OUT%d", bit))
		rcv, err := c.AddCell(fmt.Sprintf("rcv%d", bit), netlist.INV, []netlist.NetID{bus}, out)
		if err != nil {
			b.Fatal(err)
		}
		c.MarkPO(out)
		c.Net(bus).Par = netlist.Parasitics{
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

// BenchmarkGoldenPathValidation reproduces the §6 SPICE comparison: the
// iterative analysis's longest path re-simulated at transistor level
// with aligned aggressors.
func BenchmarkGoldenPathValidation(b *testing.B) {
	d := benchDesign(b, xtalksta.S35932, benchScale())
	iter, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := d.GoldenPath(iter.Path, xtalksta.GoldenConfig{
			MaxOptimizedAggressors: 3, Candidates: 3, Rounds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.Delay*1e9, "ns_golden")
		b.ReportMetric(g.QuietDelay*1e9, "ns_golden_quiet")
		staDelay := iter.Path[len(iter.Path)-1].Arrival - iter.Path[0].Arrival
		b.ReportMetric(staDelay*1e9, "ns_sta_bound")
	}
}

// --- Ablations of DESIGN.md's called-out design choices ---

// BenchmarkAblationTableResolution: the paper's §3 claim that fine
// table discretization makes plain Newton converge. Coarse grids must
// still produce delays within a few percent (the residual-acceptance
// guard), at lower table build cost.
func BenchmarkAblationTableResolution(b *testing.B) {
	p := device.Generic05um()
	m, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		b.Fatal(err)
	}
	for _, grid := range []int{65, 129, device.DefaultGridN} {
		b.Run(fmt.Sprintf("grid%d", grid), func(b *testing.B) {
			lib := device.NewLibrary(p, grid)
			calc := delaycalc.New(lib, ccc.DefaultSizing(p), m, delaycalc.Options{DisableCache: true})
			req := delaycalc.Request{
				Kind: netlist.NAND, NIn: 3, Pin: 1, Dir: waveform.Rising,
				InSlew: 0.3e-9, CLoad: 60e-15, CCouple: 30e-15,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := calc.Eval(req)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Delay*1e9, "ns_delay")
			}
		})
	}
}

// BenchmarkAblationVthChoice: the restart voltage must not change the
// delay as long as it stays below the device threshold (§2: 0.2 V vs a
// 0.6 V device threshold).
func BenchmarkAblationVthChoice(b *testing.B) {
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	for _, vth := range []float64{0.1, 0.2, 0.4} {
		b.Run(fmt.Sprintf("vth%dmV", int(vth*1000)), func(b *testing.B) {
			m, err := coupling.NewModel(p.VDD, vth)
			if err != nil {
				b.Fatal(err)
			}
			calc := delaycalc.New(lib, ccc.DefaultSizing(p), m, delaycalc.Options{DisableCache: true})
			req := delaycalc.Request{
				Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising,
				InSlew: 0.3e-9, CLoad: 40e-15, CCouple: 20e-15,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := calc.Eval(req)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Delay*1e9, "ns_delay")
			}
		})
	}
}

// BenchmarkAblationDelayCache: the characterization cache versus exact
// per-arc simulation, on a small circuit so the exact variant stays
// tractable.
func BenchmarkAblationDelayCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "cached"
		if disable {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			d, err := xtalksta.GeneratePreset(xtalksta.S35932, 0.008,
				xtalksta.BuildOptions{Calc: delaycalc.Options{DisableCache: disable}})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.OneStep})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.LongestPath*1e9, "ns_delay")
			}
		})
	}
}

// BenchmarkExtensionPiModel: resistive shielding versus the paper's
// lumped-load + Elmore treatment.
func BenchmarkExtensionPiModel(b *testing.B) {
	d := benchDesign(b, xtalksta.S35932, benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lumped, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
		if err != nil {
			b.Fatal(err)
		}
		pi, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative, PiModel: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lumped.LongestPath*1e9, "ns_lumped")
		b.ReportMetric(pi.LongestPath*1e9, "ns_pimodel")
	}
}

// BenchmarkExtensionLUT: analysis from the precharacterized library
// versus the circuit-level calculator (accuracy and speed trade).
func BenchmarkExtensionLUT(b *testing.B) {
	d := benchDesign(b, xtalksta.S35932, benchScale())
	lut, err := d.Precharacterize(xtalksta.LUTConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.OneStep})
		if err != nil {
			b.Fatal(err)
		}
		fast, err := d.AnalyzeLUT(lut, xtalksta.AnalysisOptions{Mode: xtalksta.OneStep})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exact.LongestPath*1e9, "ns_exact")
		b.ReportMetric(fast.LongestPath*1e9, "ns_lut")
		b.ReportMetric(exact.Runtime.Seconds()/fast.Runtime.Seconds(), "speedup")
	}
}

// BenchmarkExtensionParallel: worker scaling of the analysis sweep.
func BenchmarkExtensionParallel(b *testing.B) {
	d := benchDesign(b, xtalksta.S38417, benchScale())
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := d.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.OneStep, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.LongestPath*1e9, "ns_delay")
			}
		})
	}
}

// BenchmarkAblationIntegrator: Backward Euler versus trapezoidal in the
// Fig. 1 golden circuit.
func BenchmarkAblationIntegrator(b *testing.B) {
	lib := device.NewLibrary(device.Generic05um(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// figone uses trapezoidal internally; this ablation times the
		// whole coupled-pair run, the integrator cost driver.
		if _, err := figone.AlignmentSweep(lib, 60e-15, 60e-15, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientKernel times the adaptive-timestep kernel on a mixed
// uncached arc workload (benchstat-friendly: `go test -bench
// TransientKernel -count 10 | benchstat`).
func BenchmarkTransientKernel(b *testing.B) {
	p := device.Generic05um()
	lib := device.NewLibrary(p, 0)
	m, err := coupling.NewModel(p.VDD, p.VthModel)
	if err != nil {
		b.Fatal(err)
	}
	reqs := []delaycalc.Request{
		{Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Rising, InSlew: 0.3e-9, CLoad: 60e-15},
		{Kind: netlist.INV, NIn: 1, Pin: 0, Dir: waveform.Falling, InSlew: 0.15e-9, CLoad: 25e-15},
		{Kind: netlist.NAND, NIn: 2, Pin: 1, Dir: waveform.Rising, InSlew: 0.4e-9, CLoad: 50e-15, CCouple: 30e-15},
		{Kind: netlist.NOR, NIn: 3, Pin: 2, Dir: waveform.Falling, InSlew: 0.25e-9, CLoad: 40e-15, CCouple: 20e-15},
		{Kind: netlist.NAND, NIn: 4, Pin: 0, Dir: waveform.Falling, InSlew: 0.6e-9, CLoad: 90e-15},
	}
	calc := delaycalc.New(lib, ccc.DefaultSizing(p), m, delaycalc.Options{DisableCache: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := calc.Eval(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	c := calc.Counters()
	b.ReportMetric(float64(c.NewtonIterations)/float64(b.N), "newton_iters/op")
}

// BenchmarkTelemetryOverhead: the same analysis bare, with an attached
// metrics registry, and with registry + trace + an event log writing to
// io.Discard. The instrumented runs must stay within noise of the bare
// run — the hot path is one atomic add per event either way.
func BenchmarkTelemetryOverhead(b *testing.B) {
	d := benchDesign(b, xtalksta.S35932, benchScale())
	run := func(b *testing.B, opts xtalksta.AnalysisOptions) {
		b.Helper()
		opts.Mode = xtalksta.Iterative
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Analyze(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, xtalksta.AnalysisOptions{}) })
	b.Run("metrics", func(b *testing.B) {
		run(b, xtalksta.AnalysisOptions{Metrics: xtalksta.NewMetricsRegistry()})
	})
	b.Run("metrics+trace+events", func(b *testing.B) {
		run(b, xtalksta.AnalysisOptions{
			Metrics: xtalksta.NewMetricsRegistry(),
			Trace:   xtalksta.NewTracer(&xtalksta.ChromeTrace{}),
			Events:  xtalksta.NewEventLog(io.Discard),
		})
	})
}
