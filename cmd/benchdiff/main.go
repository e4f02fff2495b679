// Command benchdiff compares two bench result JSON files (as written by
// `xtalksta -json` / `make bench-json`) and fails when any mode's delay
// drifts beyond the tolerance. CI runs it against a checked-in baseline
// so behavioral regressions in the analyses are caught at the gate, not
// after merge.
//
// Usage:
//
//	benchdiff -base ci/bench_baseline.json -new BENCH.json -tol 0.5
//	benchdiff -metrics -base base_metrics.json -new new_metrics.json
//
// Runtime and arc-evaluation counts are reported but never gated: they
// vary with hardware and scheduling. Delays are pure functions of the
// design and must not move. Peak memory (max_rss_bytes) gates hard at
// -mem-tol percent growth — the data layout determines it, so a
// regression there is a code change, not noise; compile_ms is reported
// warn-only. When both files record the circuit size (env cells/scale)
// a mismatch refuses the comparison: drift across scales is
// meaningless.
//
// The optional "latency" (analysis percentiles from `xtalksta -json`)
// and "server" (daemon percentiles/throughput from `xtalkload -merge`)
// sections diff warn-only: rows moving beyond -lat-tol are marked WARN
// in the report but never fail the build — wall-clock numbers from a
// shared CI box are for explaining drift, not gating it.
//
// With -metrics the inputs are metrics-registry dumps (`xtalksta
// -metrics`, Registry.WriteJSON) instead: the report lists every
// counter, gauge and histogram sample-count whose value moved between
// the two dumps — a work-drift view (arc evaluations, cache hits,
// converged skips) that complements the delay gate. Informational
// only: it never fails the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type benchEnv struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	GitRevision string `json:"git_revision"`
	// Scale and Cells pin the circuit size (absent/zero in older
	// files). When both files record Cells, a mismatch refuses the
	// comparison outright — drift numbers across different circuit
	// sizes are meaningless.
	Scale float64 `json:"scale"`
	Cells int     `json:"cells"`
}

type benchFile struct {
	Circuit string `json:"circuit"`
	// Env is absent in files written before environment recording; the
	// header then flags the comparison as unattributed.
	Env *benchEnv `json:"env"`
	// CompileMs and MaxRSSBytes are the build wall time and peak
	// resident set (absent/zero in older files). Memory gates
	// hard at -mem-tol; compile time diffs warn-only (wall clock).
	CompileMs   float64    `json:"compile_ms"`
	MaxRSSBytes int64      `json:"max_rss_bytes"`
	Rows        []benchRow `json:"rows"`
	// Latency and Server are flat numeric sections (absent in older
	// files). They diff warn-only: wall-clock figures, never gated.
	Latency map[string]float64 `json:"latency"`
	Server  map[string]float64 `json:"server"`
}

// benchRow is one mode's result row.
type benchRow struct {
	Method      string  `json:"method"`
	DelayNs     float64 `json:"delay_ns"`
	RuntimeMs   float64 `json:"runtime_ms"`
	Passes      int     `json:"passes"`
	Evaluations int64   `json:"arc_evaluations"`
	Tier0Evals  int64   `json:"tier0_evals"`
	// Simulations is nil in files written before the column existed.
	Simulations *int64 `json:"simulations"`
}

// rowCounts maps each mode to one per-row work count; rows where get
// returns nil (a column the file predates) are left out.
func rowCounts(f *benchFile, get func(*benchRow) *int64) map[string]float64 {
	out := make(map[string]float64, len(f.Rows))
	for i := range f.Rows {
		if v := get(&f.Rows[i]); v != nil {
			out[f.Rows[i].Method] = float64(*v)
		}
	}
	return out
}

// envString renders one file's recorded environment for the header.
func envString(f *benchFile) string {
	if f.Env == nil {
		return "(no environment recorded)"
	}
	e := f.Env
	s := fmt.Sprintf("%s gomaxprocs=%d workers=%d rev=%s",
		e.GoVersion, e.GOMAXPROCS, e.Workers, e.GitRevision)
	if e.Cells > 0 {
		s += fmt.Sprintf(" cells=%d scale=%g", e.Cells, e.Scale)
	}
	return s
}

// checkSameCircuitSize refuses to compare bench files recorded at
// different circuit sizes. Only enforced when both files carry the
// size (older baselines predate the env cells/scale fields).
func checkSameCircuitSize(base, cand *benchFile) error {
	if base.Env == nil || cand.Env == nil || base.Env.Cells == 0 || cand.Env.Cells == 0 {
		return nil
	}
	if base.Env.Cells != cand.Env.Cells || base.Env.Scale != cand.Env.Scale {
		return fmt.Errorf("circuit size mismatch: base has %d cells (scale %g), candidate %d cells (scale %g) — refusing to compare across scales",
			base.Env.Cells, base.Env.Scale, cand.Env.Cells, cand.Env.Scale)
	}
	return nil
}

func load(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Rows) == 0 {
		return nil, fmt.Errorf("%s: no result rows", path)
	}
	return &f, nil
}

// metricsDump mirrors obs.Dump (the Registry.WriteJSON shape) closely
// enough to diff; labeled series arrive pre-flattened as
// `name{key="value",...}` map keys.
type metricsDump struct {
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func loadMetrics(path string) (*metricsDump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d metricsDump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// diffMetrics prints every metric whose value moved between the dumps
// (plus appeared/disappeared series). Never fails: work counters vary
// legitimately with caches, scheduling and feature flags — the report
// is for explaining drift, not gating it.
func diffMetrics(basePath, newPath string) error {
	base, err := loadMetrics(basePath)
	if err != nil {
		return err
	}
	cand, err := loadMetrics(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("metrics diff: %s -> %s\n", basePath, newPath)
	changed := 0
	changed += diffSection("counter", int64Rows(base.Counters), int64Rows(cand.Counters))
	changed += diffSection("gauge", floatRows(base.Gauges), floatRows(cand.Gauges))
	bh := make(map[string]float64, len(base.Histograms))
	for k, v := range base.Histograms {
		bh[k+" (samples)"] = float64(v.Count)
	}
	nh := make(map[string]float64, len(cand.Histograms))
	for k, v := range cand.Histograms {
		nh[k+" (samples)"] = float64(v.Count)
	}
	changed += diffSection("histogram", bh, nh)
	if changed == 0 {
		fmt.Println("ok: no metric moved")
	} else {
		fmt.Printf("%d metrics moved (informational; not gated)\n", changed)
	}
	return nil
}

func int64Rows(m map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

func floatRows(m map[string]float64) map[string]float64 { return m }

// diffSection prints one kind's moved/new/gone rows in sorted order and
// returns how many rows it printed.
func diffSection(kind string, base, cand map[string]float64) int {
	names := make(map[string]bool, len(base)+len(cand))
	for k := range base {
		names[k] = true
	}
	for k := range cand {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	n := 0
	for _, name := range sorted {
		bv, inBase := base[name]
		nv, inCand := cand[name]
		switch {
		case !inBase:
			fmt.Printf("  %-9s %-60s %14s -> %14g  NEW\n", kind, name, "-", nv)
		case !inCand:
			fmt.Printf("  %-9s %-60s %14g -> %14s  GONE\n", kind, name, bv, "-")
		case bv != nv:
			fmt.Printf("  %-9s %-60s %14g -> %14g  (%+g)\n", kind, name, bv, nv, nv-bv)
		default:
			continue
		}
		n++
	}
	return n
}

// diffWarnOnly compares one flat numeric section between the files and
// prints rows whose relative drift exceeds tol percent with a WARN
// mark. It returns the number of warned rows but never fails the run:
// latency and throughput on shared hardware are informational.
func diffWarnOnly(section string, base, cand map[string]float64, tol float64) int {
	switch {
	case len(base) == 0 && len(cand) == 0:
		return 0
	case len(base) == 0:
		fmt.Printf("\n%s: no baseline section; candidate recorded (informational)\n", section)
		return 0
	case len(cand) == 0:
		fmt.Printf("\n%s: section missing from candidate (informational)\n", section)
		return 0
	}
	names := make([]string, 0, len(base))
	for k := range base {
		if _, ok := cand[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Printf("\n%s (warn-only, tol %.0f%%):\n", section, tol)
	fmt.Printf("  %-24s %12s %12s %9s\n", "key", "base", "new", "drift %")
	warned := 0
	for _, k := range names {
		bv, nv := base[k], cand[k]
		drift := 0.0
		if bv != 0 {
			drift = 100 * math.Abs(nv-bv) / math.Abs(bv)
		} else if nv != 0 {
			drift = math.Inf(1)
		}
		mark := ""
		if drift > tol {
			mark = "  WARN"
			warned++
		}
		fmt.Printf("  %-24s %12.4g %12.4g %9.1f%s\n", k, bv, nv, drift, mark)
	}
	if warned > 0 {
		fmt.Printf("  %d %s rows beyond %.0f%% (informational; not gated)\n", warned, section, tol)
	}
	return warned
}

func main() {
	basePath := flag.String("base", "", "baseline bench JSON")
	newPath := flag.String("new", "", "candidate bench JSON")
	tol := flag.Float64("tol", 0.5, "allowed per-mode delay drift in percent")
	memTol := flag.Float64("mem-tol", 25, "allowed max_rss_bytes growth in percent (hard-fails like delay drift; shrinking never fails)")
	latTol := flag.Float64("lat-tol", 25, "warn threshold in percent for the latency/server sections (never fails)")
	metricsMode := flag.Bool("metrics", false, "diff two metrics-registry dumps (xtalksta -metrics) instead of bench results; informational, never fails")
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -new are required")
		os.Exit(2)
	}
	if *metricsMode {
		if err := diffMetrics(*basePath, *newPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		return
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cand, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	got := make(map[string]float64, len(cand.Rows))
	for _, r := range cand.Rows {
		got[r.Method] = r.DelayNs
	}

	fmt.Printf("base: %s  %s\n", *basePath, envString(base))
	fmt.Printf("new:  %s  %s\n", *newPath, envString(cand))
	if err := checkSameCircuitSize(base, cand); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fail := false
	fmt.Printf("%-22s %12s %12s %9s\n", "mode", "base ns", "new ns", "drift %")
	for _, r := range base.Rows {
		nd, ok := got[r.Method]
		if !ok {
			fmt.Printf("%-22s %12.4f %12s %9s  MISSING\n", r.Method, r.DelayNs, "-", "-")
			fail = true
			continue
		}
		drift := 0.0
		if r.DelayNs != 0 {
			drift = 100 * math.Abs(nd-r.DelayNs) / math.Abs(r.DelayNs)
		} else if nd != 0 {
			drift = math.Inf(1)
		}
		mark := ""
		if drift > *tol {
			mark = "  DRIFT"
			fail = true
		}
		fmt.Printf("%-22s %12.4f %12.4f %9.3f%s\n", r.Method, r.DelayNs, nd, drift, mark)
	}
	// Per-mode work counts diff warn-only, like the wall-clock sections:
	// tier-0 dispatch, cache reuse and feature flags move them
	// legitimately — the report explains work drift, the delay rows
	// above gate correctness.
	evals := func(r *benchRow) *int64 { return &r.Evaluations }
	sims := func(r *benchRow) *int64 { return r.Simulations }
	diffWarnOnly("arc_evaluations", rowCounts(base, evals), rowCounts(cand, evals), *latTol)
	diffWarnOnly("simulations", rowCounts(base, sims), rowCounts(cand, sims), *latTol)
	diffWarnOnly("latency", base.Latency, cand.Latency, *latTol)
	diffWarnOnly("server", base.Server, cand.Server, *latTol)

	// Peak-memory gate: growth beyond -mem-tol fails like delay drift
	// (memory is a deterministic function of the data layout on a given
	// platform, modulo GC timing the tolerance absorbs). Shrinking is
	// always fine. compile_ms diffs warn-only above: wall clock on
	// shared hardware explains drift but never gates.
	if base.MaxRSSBytes > 0 && cand.MaxRSSBytes > 0 {
		growth := 100 * (float64(cand.MaxRSSBytes) - float64(base.MaxRSSBytes)) / float64(base.MaxRSSBytes)
		mark := ""
		if growth > *memTol {
			mark = "  REGRESSION"
			fail = true
		}
		fmt.Printf("\nmax_rss: %.1f -> %.1f MiB (%+.1f%%, tol %.0f%%)%s\n",
			float64(base.MaxRSSBytes)/(1<<20), float64(cand.MaxRSSBytes)/(1<<20), growth, *memTol, mark)
	} else if base.MaxRSSBytes == 0 && cand.MaxRSSBytes > 0 {
		fmt.Printf("\nmax_rss: no baseline; candidate %d bytes (recorded, not gated)\n", cand.MaxRSSBytes)
	}
	if base.CompileMs > 0 && cand.CompileMs > 0 {
		diffWarnOnly("compile", map[string]float64{"compile_ms": base.CompileMs},
			map[string]float64{"compile_ms": cand.CompileMs}, *latTol)
	}
	if fail {
		fmt.Fprintf(os.Stderr, "benchdiff: delays drifted beyond %.2f%% of %s\n", *tol, *basePath)
		os.Exit(1)
	}
	fmt.Printf("ok: all modes within %.2f%% of baseline\n", *tol)
}
