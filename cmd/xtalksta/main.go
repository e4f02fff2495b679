// Command xtalksta runs the crosstalk-aware static timing analyses on a
// circuit and prints the paper-style result table.
//
// Usage:
//
//	xtalksta -preset s35932 -scale 0.05 -golden
//	xtalksta -bench design.bench -mode iterative
//	xtalksta -cells 2000 -dffs 150 -depth 14 -seed 7
//
// With -mode, a single analysis runs and the critical path is printed;
// without it, all five analyses run and the table is rendered.
//
// Observability: -metrics dumps the engine's counter registry as JSON,
// -trace writes a Chrome trace_event profile (open in chrome://tracing
// or Perfetto), -cpuprofile/-memprofile write pprof profiles, -events
// appends the structured JSONL event log (one record per analysis,
// refinement pass and ECO batch) to a file, -v writes the same records
// to stderr, and -json writes the all-modes result table as
// machine-readable JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/incremental"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/obs/httpserve"
	"xtalksta/internal/report"
	"xtalksta/internal/vcd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xtalksta:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		benchPath = flag.String("bench", "", "ISCAS89 .bench netlist to analyze")
		spefPath  = flag.String("spef", "", "parasitics file for -bench (skips place & route)")
		preset    = flag.String("preset", "", "paper benchmark preset: s35932, s38417 or s38584")
		scale     = flag.Float64("scale", 1.0, "preset size scale in (0,1]")
		cells     = flag.Int("cells", 0, "generate a synthetic circuit with this many cells")
		dffs      = flag.Int("dffs", 0, "flip-flop count for -cells")
		depth     = flag.Int("depth", 12, "logic depth for -cells")
		seed      = flag.Int64("seed", 1, "generator seed for -cells")
		mode      = flag.String("mode", "", "single analysis: best, doubled, worst, onestep, iterative")
		golden    = flag.Bool("golden", false, "validate the longest path with the golden simulator")
		markdown  = flag.Bool("markdown", false, "emit the table as markdown")
		clock     = flag.Float64("clock", 0, "clock period in ns: print a per-endpoint slack report")
		topk      = flag.Int("topk", 10, "endpoints/nets to list in reports")
		noiseFlag = flag.Bool("noise", false, "print the crosstalk glitch (functional noise) report")
		fix       = flag.Bool("fix", false, "run the gate-sizing optimizer against -clock (requires -mode and -clock)")
		goldenVCD = flag.String("goldenvcd", "", "with -golden: dump the aligned path waveforms to this VCD file")

		ecoPath   = flag.String("eco", "", "replay ECO edit batches from this JSON file incrementally (requires -mode)")
		ecoRandom = flag.Int("eco-random", 0, "replay this many random ECO edit batches (requires -mode)")
		ecoSeed   = flag.Int64("eco-seed", 1, "rng seed for -eco-random")
		ecoEdits  = flag.Int("eco-edits", 4, "edits per random batch for -eco-random")
		ecoVerify = flag.Bool("eco-verify", false, "cross-check every incremental result against a from-scratch run")

		tier0 = flag.Bool("tier0", true, "tiered delay evaluation: analytic bounds skip provably non-critical exact evaluations (bit-identical results; ignored on ECO re-analysis)")

		workers     = flag.Int("workers", 0, "worker goroutines per BFS sweep (0/1 = sequential)")
		metricsPath = flag.String("metrics", "", "write the metrics registry as JSON to this file")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event profile to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		verbose     = flag.Bool("v", false, "write the JSONL event log (one record per analysis, refinement pass and ECO batch) to stderr")
		jsonPath    = flag.String("json", "", "write the all-modes result table as JSON to this file (table mode only)")

		serveObs  = flag.String("serve-obs", "", "serve the live introspection plane (/metrics, /debug/pprof/*, /debug/obs/*) on this address, e.g. :9090 or 127.0.0.1:0")
		eventsOut = flag.String("events", "", "append structured JSONL analysis/pass/ECO events to this file")
		attrFlag  = flag.Bool("attribution", false, "single-mode: print the per-arc timing attribution of the top -topk paths")
		attrJSON  = flag.String("attribution-json", "", "single-mode: write the timing attribution as JSON to this file")
	)
	flag.Parse()

	if *topk < 1 {
		return fmt.Errorf("-topk must be at least 1, got %d", *topk)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// Telemetry plumbing: one registry and one trace buffer shared by
	// layout, engine and golden simulation; flushed to disk on the way
	// out whatever happened in between. -serve-obs serves the registry,
	// so it implies one.
	var reg *xtalksta.MetricsRegistry
	if *metricsPath != "" || *serveObs != "" {
		reg = xtalksta.NewMetricsRegistry()
	}
	var chrome *xtalksta.ChromeTrace
	var tracer *xtalksta.Tracer
	if *tracePath != "" {
		chrome = &xtalksta.ChromeTrace{}
		tracer = xtalksta.NewTracer(chrome)
	}
	defer func() {
		if reg != nil && *metricsPath != "" {
			if err := writeFileWith(*metricsPath, reg.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "xtalksta: writing metrics:", err)
			}
		}
		if chrome != nil {
			if err := writeFileWith(*tracePath, chrome.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "xtalksta: writing trace:", err)
			}
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xtalksta: writing heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "xtalksta: writing heap profile:", err)
			}
		}
	}()

	// Structured event log: one JSONL record per analysis, refinement
	// pass and ECO batch, appended to -events and, with -v, to stderr.
	var eventSinks []io.Writer
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		eventSinks = append(eventSinks, f)
	}
	if *verbose {
		eventSinks = append(eventSinks, os.Stderr)
	}
	var events *xtalksta.EventLog
	if len(eventSinks) > 0 {
		events = xtalksta.NewEventLog(io.MultiWriter(eventSinks...))
		events.AttachCounter(reg.Counter(obs.MEventsEmitted))
	}

	// Live introspection plane (-serve-obs): starts before the design
	// build so layout/characterization metrics are already scrapeable.
	var obsSrv *httpserve.Server
	if *serveObs != "" {
		obsSrv = httpserve.New(reg)
		if err := obsSrv.Start(*serveObs); err != nil {
			return err
		}
		defer obsSrv.Close()
		fmt.Fprintf(os.Stderr, "introspection plane listening on http://%s\n", obsSrv.Addr())

		// Clean exit on SIGINT/SIGTERM while serving: drain the plane
		// (in-flight scrapes finish, the listener closes, nothing leaks)
		// instead of dying mid-response.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			sig, ok := <-sigc
			if !ok {
				return
			}
			fmt.Fprintf(os.Stderr, "xtalksta: %v: draining introspection plane\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			obsSrv.Shutdown(ctx)
			os.Exit(130)
		}()
	}

	if (*attrFlag || *attrJSON != "") && *mode == "" {
		return fmt.Errorf("-attribution/-attribution-json require -mode (attribution is per-analysis)")
	}

	aopts := xtalksta.AnalysisOptions{
		Workers:         *workers,
		Tier0:           *tier0,
		Metrics:         reg,
		Trace:           tracer,
		Events:          events,
		Attribution:     *attrFlag || *attrJSON != "" || (obsSrv != nil && *mode != ""),
		AttributionTopK: *topk,
	}

	bopts := xtalksta.Defaults()
	bopts.Layout.Metrics = reg
	bopts.Layout.Trace = tracer
	bopts.Calc.Metrics = reg
	d, title, err := buildDesign(*benchPath, *spefPath, *preset, *scale, *cells, *dffs, *depth, *seed, bopts)
	if err != nil {
		return err
	}
	st, err := d.Stats()
	if err != nil {
		return err
	}
	if obsSrv != nil {
		obsSrv.SetSessions(func() any { return d.Sessions() })
	}
	fmt.Printf("circuit: %s — %d cells (%d DFFs), %d nets, depth %d\n\n",
		title, st.Cells, st.DFFs, st.Nets, st.LogicDepth)

	if *noiseFlag {
		rep, err := d.AnalyzeNoise()
		if err != nil {
			return err
		}
		if err := rep.Render(os.Stdout, *topk); err != nil {
			return err
		}
		fmt.Println()
	}

	if (*ecoPath != "" || *ecoRandom > 0) && *mode == "" {
		return fmt.Errorf("-eco/-eco-random require -mode (incremental replay is per-analysis)")
	}

	if *mode != "" {
		m, err := parseMode(*mode)
		if err != nil {
			return err
		}
		aopts.Mode = m
		if *ecoPath != "" || *ecoRandom > 0 {
			if *fix || *clock > 0 {
				return fmt.Errorf("-eco/-eco-random cannot be combined with -fix or -clock")
			}
			return runECO(d, aopts, *ecoPath, *ecoRandom, *ecoSeed, *ecoEdits, *ecoVerify)
		}
		if *fix {
			if *clock <= 0 {
				return fmt.Errorf("-fix requires -clock")
			}
			res, err := d.FixTiming(aopts, *clock*1e-9, xtalksta.SizingConfig{})
			if err != nil {
				return err
			}
			fmt.Printf("sizing: %.3f ns -> %.3f ns against %.3f ns target (met=%v, %d moves, %d iterations)\n",
				res.Before*1e9, res.After*1e9, *clock, res.Met, len(res.Moves), res.Iterations)
			for i, mv := range res.Moves {
				if i >= *topk {
					fmt.Printf("  ... %d more moves\n", len(res.Moves)-i)
					break
				}
				fmt.Printf("  upsize %-12s -> %.2fx\n", mv.Cell, mv.NewSize)
			}
			return nil
		}
		if *clock > 0 {
			rep, err := d.Report(aopts, *clock*1e-9)
			if err != nil {
				return err
			}
			return rep.Render(os.Stdout, *topk)
		}
		res, err := d.Analyze(aopts)
		if err != nil {
			return err
		}
		fmt.Printf("%s: longest path %.3f ns (endpoint %s %s, %d passes, %v, %d arc evals)\n",
			res.Mode, res.LongestPath*1e9, res.Endpoint.Net, res.Endpoint.Kind,
			res.Passes, res.Runtime.Round(1e6), res.ArcEvaluations)
		fmt.Println("\ncritical path:")
		for _, step := range res.Path {
			cell := step.Cell
			if cell == "" {
				cell = "(launch)"
			}
			fmt.Printf("  %8.3f ns  %-5s %-20s via %s\n", step.Arrival*1e9, step.Dir, step.Net, cell)
		}
		if res.Attribution != nil {
			ra := report.BuildAttribution(res.Attribution)
			if *attrFlag {
				fmt.Println()
				if err := ra.Render(os.Stdout); err != nil {
					return err
				}
			}
			if *attrJSON != "" {
				if err := writeFileWith(*attrJSON, ra.WriteJSON); err != nil {
					return err
				}
			}
			if obsSrv != nil {
				var buf strings.Builder
				if err := ra.Render(&buf); err != nil {
					return err
				}
				obsSrv.SetCritpath(buf.String(), ra)
			}
		}
		if *golden {
			g, err := d.GoldenPath(res.Path, xtalksta.GoldenConfig{Metrics: reg, Trace: tracer})
			if err != nil {
				return err
			}
			fmt.Printf("\ngolden simulation: %.3f ns aligned (%.3f ns quiet), %d aggressors, %d sims\n",
				g.Delay*1e9, g.QuietDelay*1e9, len(g.Aggressors), g.Sims)
			if *goldenVCD != "" {
				f, err := os.Create(*goldenVCD)
				if err != nil {
					return err
				}
				defer f.Close()
				var sigs []vcd.Signal
				for name, tr := range g.Traces {
					sigs = append(sigs, vcd.Signal{Name: name, Trace: tr})
				}
				if err := vcd.Write(f, "goldenpath", 1e-12, sigs); err != nil {
					return err
				}
				fmt.Printf("waveforms written to %s\n", *goldenVCD)
			}
		}
		return nil
	}

	table, err := d.PaperTableOpts(title, *golden, aopts)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeTableJSON(*jsonPath, title, st, table); err != nil {
			return err
		}
	}
	if *markdown {
		return table.Markdown(os.Stdout)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	if v := table.CheckShape(0.05); len(v) > 0 {
		fmt.Println("\nWARNING: paper shape violated:")
		for _, s := range v {
			fmt.Println("  -", s)
		}
	}
	return nil
}

// runECO is the incremental replay flow: one full analysis establishes
// the baseline, then each edit batch is applied and re-analyzed with
// Design.Reanalyze, printing the dirty/reused line counts, the delay
// movement, and the wall time per revision. With -eco-verify every
// incremental result is additionally bit-compared against a
// from-scratch analysis of the edited design (fromScratch, compareECO).
func runECO(d *xtalksta.Design, aopts xtalksta.AnalysisOptions, path string, random int, seed int64, perBatch int, verify bool) error {
	var batches [][]xtalksta.Edit
	if path != "" {
		b, err := incremental.LoadBatches(path)
		if err != nil {
			return err
		}
		batches = b
	}
	if random > 0 {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < random; i++ {
			if b := incremental.RandomBatch(d.Circuit, rng, perBatch); len(b) > 0 {
				batches = append(batches, b)
			}
		}
	}
	if len(batches) == 0 {
		return fmt.Errorf("no ECO batches to replay")
	}

	t0 := time.Now()
	res, err := d.Analyze(aopts)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s: longest %.4f ns, %d passes, %v (cache: %d entries)\n",
		res.Mode, res.LongestPath*1e9, res.Passes, time.Since(t0).Round(time.Millisecond),
		d.Calc.CacheEntries())

	for i, batch := range batches {
		for _, e := range batch {
			fmt.Printf("  rev %d: %s\n", d.Revision()+1, e)
		}
		t1 := time.Now()
		next, err := d.Reanalyze(res, batch)
		if err != nil {
			return err
		}
		wall := time.Since(t1)
		delta := (next.LongestPath - res.LongestPath) * 1e9
		if eco := next.ECO; eco != nil {
			total := eco.DirtyLines + eco.ReusedLines
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(eco.DirtyLines) / float64(total)
			}
			tag := ""
			if eco.FullFallback {
				tag = " [full fallback]"
			}
			fmt.Printf("batch %d/%d: longest %.4f ns (%+.4f ns), %d dirty / %d reused lines (%.1f%% re-evaluated), %d cone expansions, %v%s\n",
				i+1, len(batches), next.LongestPath*1e9, delta,
				eco.DirtyLines, eco.ReusedLines, pct, eco.ConeExpansions,
				wall.Round(time.Microsecond), tag)
		} else {
			fmt.Printf("batch %d/%d: longest %.4f ns (%+.4f ns), %v\n",
				i+1, len(batches), next.LongestPath*1e9, delta, wall.Round(time.Microsecond))
		}
		if verify {
			full, err := fromScratch(d, next)
			if err != nil {
				return err
			}
			if err := compareECO(d.Circuit, full, next); err != nil {
				return fmt.Errorf("batch %d: %w", i+1, err)
			}
			fmt.Printf("  verified: longest path, passes and every net's final state bit-identical to a from-scratch run\n")
		}
		res = next
	}
	fmt.Printf("final: longest %.4f ns at revision %d (cache: %d entries)\n",
		res.LongestPath*1e9, d.Revision(), d.Calc.CacheEntries())
	return nil
}

// fromScratch analyzes the design's current revision, whose circuit
// carries every edit, under the options the incremental result ran
// with, on a freshly compiled snapshot. Design.Analyze would reuse the
// snapshot Reanalyze derived from the previous revision's, so a wrong
// derivation would show on both sides of the comparison.
func fromScratch(d *xtalksta.Design, inc *xtalksta.AnalysisResult) (*xtalksta.AnalysisResult, error) {
	if inc.Replay == nil {
		return nil, fmt.Errorf("incremental result carries no replay state")
	}
	eng, err := core.NewEngine(d.Circuit, d.Calc, inc.Replay.Options())
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// compareECO checks an incremental result against a from-scratch run of
// the same revision, bit for bit: the longest path, the pass count and
// every net's final arrival, slew and quiescent time. The error names
// the first net and direction that differ.
func compareECO(c *netlist.Circuit, full, inc *xtalksta.AnalysisResult) error {
	if math.Float64bits(full.LongestPath) != math.Float64bits(inc.LongestPath) {
		return fmt.Errorf("incremental longest path %.9g ns != from-scratch %.9g ns",
			inc.LongestPath*1e9, full.LongestPath*1e9)
	}
	if full.Passes != inc.Passes {
		return fmt.Errorf("incremental run took %d passes, from-scratch %d", inc.Passes, full.Passes)
	}
	if full.Replay == nil || inc.Replay == nil || full.Replay.Nets() != len(c.Nets) || inc.Replay.Nets() != len(c.Nets) {
		return fmt.Errorf("no replay state of this design to compare")
	}
	fields := []struct {
		name      string
		want, got [][2]float64
	}{
		{"arrival", full.Replay.FinalArrivals(), inc.Replay.FinalArrivals()},
		{"slew", full.Replay.FinalSlews(), inc.Replay.FinalSlews()},
		{"quiet time", full.Replay.FinalQuiets(), inc.Replay.FinalQuiets()},
	}
	for i := range c.Nets {
		for d, dir := range []string{"rise", "fall"} {
			for _, f := range fields {
				if math.Float64bits(f.want[i][d]) != math.Float64bits(f.got[i][d]) {
					return fmt.Errorf("net %s %s %s: incremental %.9g ns != from-scratch %.9g ns",
						c.Nets[i].Name, dir, f.name, f.got[i][d]*1e9, f.want[i][d]*1e9)
				}
			}
		}
	}
	return nil
}

// writeFileWith creates path and streams it through the given writer
// function.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTableJSON emits the machine-readable all-modes table (-json):
// the circuit's counts, one row per mode in table order, and the
// golden-simulation delay when -golden ran.
func writeTableJSON(path, title string, st netlist.Stats, table *xtalksta.Table) error {
	type row struct {
		Method      string  `json:"method"`
		DelayNs     float64 `json:"delay_ns"`
		RuntimeMs   float64 `json:"runtime_ms"`
		Passes      int     `json:"passes"`
		Evaluations int64   `json:"arc_evaluations"`
		Tier0Evals  int64   `json:"tier0_evals"`
		Simulations int64   `json:"simulations"`
	}
	out := struct {
		Circuit  string  `json:"circuit"`
		Cells    int     `json:"cells"`
		DFFs     int     `json:"dffs"`
		Nets     int     `json:"nets"`
		Depth    int     `json:"logic_depth"`
		Rows     []row   `json:"rows"`
		GoldenNs float64 `json:"golden_ns,omitempty"`
	}{Circuit: title, Cells: st.Cells, DFFs: st.DFFs, Nets: st.Nets,
		Depth: st.LogicDepth, GoldenNs: table.GoldenNs}
	for _, r := range table.Rows {
		out.Rows = append(out.Rows, row{
			Method:      r.Method,
			DelayNs:     r.DelayNs,
			RuntimeMs:   float64(r.Runtime) / 1e6,
			Passes:      r.Passes,
			Evaluations: r.Evaluations,
			Tier0Evals:  r.Tier0Evals,
			Simulations: r.Simulations,
		})
	}
	return writeFileWith(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	})
}

func buildDesign(benchPath, spefPath, preset string, scale float64, cells, dffs, depth int, seed int64, bopts xtalksta.BuildOptions) (*xtalksta.Design, string, error) {
	switch {
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		if spefPath != "" {
			sf, err := os.Open(spefPath)
			if err != nil {
				return nil, "", err
			}
			defer sf.Close()
			d, err := xtalksta.FromBenchAndSPEF(benchPath, f, sf, bopts)
			return d, benchPath, err
		}
		d, err := xtalksta.FromBench(benchPath, f, bopts)
		return d, benchPath, err
	case preset != "":
		p := xtalksta.Preset(strings.ToLower(preset))
		d, err := xtalksta.GeneratePreset(p, scale, bopts)
		title := fmt.Sprintf("%s (scale %.2f)", preset, scale)
		return d, title, err
	case cells > 0:
		if dffs <= 0 {
			dffs = cells / 10
		}
		d, err := xtalksta.Generate(circuitgen.Params{
			Seed: seed, Cells: cells, DFFs: dffs, Depth: depth, ClockFanout: 8,
		}, bopts)
		title := fmt.Sprintf("synthetic %d cells (seed %d)", cells, seed)
		return d, title, err
	default:
		return nil, "", fmt.Errorf("one of -bench, -preset or -cells is required")
	}
}

func parseMode(s string) (xtalksta.Mode, error) {
	switch strings.ToLower(s) {
	case "best", "bestcase":
		return xtalksta.BestCase, nil
	case "doubled", "static", "staticdoubled":
		return xtalksta.StaticDoubled, nil
	case "worst", "worstcase":
		return xtalksta.WorstCase, nil
	case "onestep", "one-step", "one":
		return xtalksta.OneStep, nil
	case "iterative", "iter":
		return xtalksta.Iterative, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}
