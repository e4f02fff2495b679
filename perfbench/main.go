// Command perfbench is the repository's benchmark. It runs one named
// workload (table, warm or eco; see README.md) from a seed for a fixed
// number of seconds through the public xtalksta facade, checks every
// op's analysis outputs, and prints the end-to-end metrics as the last
// line of standard output. With --trace 1 it instead runs a plain and a
// traced copy of the workload side by side and prints the per-layer
// metrics.
//
//	bash perfbench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"xtalksta"
)

func main() {
	os.Exit(run(time.Now()))
}

func run(start time.Time) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: table, warm or eco")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want table, warm or eco)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if nproc := runtime.NumCPU(); w.workers > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s needs %d workers but only %d CPUs are available\n", w.name, w.workers, nproc)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var out *output
	var err error
	if *trace == 0 {
		out, err = runPlain(w, *seed, dur, start)
	} else {
		out, err = runTraced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, line := range []any{map[string]any{"summary": out.summary}, out.result} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	summary map[string]any
	result  result
}

// printEnv prints the environment block of a run once set-up is done
// (the cell count is known only then).
func printEnv(w *workload, s *side, seed int64, dur time.Duration, traced bool) error {
	st, err := s.d.Stats()
	if err != nil {
		return err
	}
	env := map[string]any{
		"workload":     w.name,
		"seed":         seed,
		"seconds":      dur.Seconds(),
		"traced":       traced,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workers":      w.workers,
		"go_version":   runtime.Version(),
		"git_revision": gitRevision(),
		"preset":       string(preset),
		"scale":        w.scale,
		"cells":        st.Cells,
	}
	b, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// gitRevision is the VCS revision the binary was built from, when the
// build could stamp one.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runPlain is the measured run: one side, no tracing, the end-to-end
// metrics. Op time and set-up time are gated as CPU time (all threads,
// user and system), which leaves out the time a virtual machine's
// hypervisor steals from its CPUs; the wall-clock figures are printed
// on the summary line. See README.md, "Noise".
func runPlain(w *workload, seed int64, dur time.Duration, start time.Time) (*output, error) {
	s := newSide(w, seed, false)
	if err := w.setup(s); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setupWall, setupCPU := time.Since(start), cpuTime()
	if err := printEnv(w, s, seed, dur, false); err != nil {
		return nil, err
	}
	lp := loop([]*side{s}, dur, nil)
	finishErr := w.finish(s)
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: end-of-run check:", finishErr)
	}

	n := len(s.times)
	summary := map[string]any{
		"samples":       n,
		"failed_frac":   float64(lp.failed) / float64(max(lp.attempted, 1)),
		"setup_wall_s":  setupWall.Seconds(),
		"op_p50_ms":     s.times.medianMs(),
		"op_min_ms":     ms(s.times.min()),
		"op_max_ms":     msOr0(s.times.percentile(100)),
		"ops_per_s":     float64(n) / lp.wall.Seconds(),
		"timed_wall_s":  lp.wall.Seconds(),
		"timed_cpu_s":   lp.cpu.Seconds(),
		"op_cpu_min_ms": ms(s.cpu.min()),
		"op_cpu_max_ms": msOr0(s.cpu.percentile(100)),
	}
	// A tail percentile is reported only with ten samples beyond it.
	if beyond(90, n) >= 10 {
		summary["op_p90_ms"] = msOr0(s.times.percentile(90))
		summary["op_cpu_p90_ms"] = msOr0(s.cpu.percentile(90))
	}
	return &output{
		summary: summary,
		result: result{
			Correct:   lp.failed == 0 && finishErr == nil && n > 0,
			Attempted: lp.attempted,
			Failed:    lp.failed,
			Metrics: map[string]metric{
				"setup_s":       {setupCPU.Seconds(), "s"},
				"op_cpu_p50_ms": {s.cpu.medianMs(), "ms"},
				"ops_per_cpu_s": {float64(n) / lp.cpu.Seconds(), "1/s"},
				"peak_rss_mb":   {peakRSSMiB(), "MiB"},
			},
		},
	}, nil
}

// runTraced is the per-layer run: a plain side and a traced side of the
// same workload and seed, with ops alternating between them. Both must
// produce the same bits op for op; the traced side's timers give the
// per-layer metrics and the two sides' medians the tracing overhead.
func runTraced(w *workload, seed int64, dur time.Duration) (*output, error) {
	plain, traced := newSide(w, seed, false), newSide(w, seed, true)
	for _, s := range []*side{plain, traced} {
		if err := w.setup(s); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	traced.lay.reset()
	if err := printEnv(w, traced, seed, dur, true); err != nil {
		return nil, err
	}
	var mem memDelta
	lp := loop([]*side{plain, traced}, dur, &mem)
	finishErr := w.finish(plain)
	if err := w.finish(traced); finishErr == nil {
		finishErr = err
	}
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: end-of-run check:", finishErr)
	}

	// The overhead compares the same statistic the measured run gates:
	// the median op CPU time.
	cpuPlain, cpuTraced := plain.cpu.medianMs(), traced.cpu.medianMs()
	overhead := 0.0
	if cpuPlain > 0 {
		overhead = 100 * (cpuTraced/cpuPlain - 1)
	}
	summary := map[string]any{
		"samples_plain":        len(plain.times),
		"samples_traced":       len(traced.times),
		"op_cpu_p50_ms_plain":  cpuPlain,
		"op_cpu_p50_ms_traced": cpuTraced,
		"op_p50_ms_plain":      plain.times.medianMs(),
		"op_p50_ms_traced":     traced.times.medianMs(),
	}
	if path, err := writeSpans(traced.lay.spans, w.name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		summary["spans"] = path
	}
	return &output{
		summary: summary,
		result: result{
			Correct:   lp.failed == 0 && finishErr == nil && len(traced.times) > 0,
			Attempted: lp.attempted,
			Failed:    lp.failed,
			Metrics:   traced.lay.layerMetrics(mem, overhead),
		},
	}, nil
}

type loopStats struct {
	attempted, failed int
	wall, cpu         time.Duration
}

// loop runs ops until dur has passed, one side after the other. Each op
// is checked outside its timed region; with two sides the results of
// the same op must also agree bit for bit. mem, when set, receives the
// Go runtime's allocation and GC work over the first side's ops.
func loop(sides []*side, dur time.Duration, mem *memDelta) loopStats {
	var lp loopStats
	var before, after runtime.MemStats
	start, startCPU := time.Now(), cpuTime()
	for time.Since(start) < dur {
		ok := true
		for i, s := range sides {
			// Each op starts from a collected heap, so the garbage one op
			// leaves is not collected on the next op's clock.
			runtime.GC()
			if mem != nil && i == 0 {
				runtime.ReadMemStats(&before)
			}
			t, err := s.w.op(s)
			if mem != nil && i == 0 {
				runtime.ReadMemStats(&after)
				mem.allocBytes += after.TotalAlloc - before.TotalAlloc
				mem.gcCycles += after.NumGC - before.NumGC
				mem.ops++
			}
			lp.attempted++
			if err == nil {
				err = s.w.check(s)
			}
			if err != nil {
				lp.failed++
				ok = false
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", s.w.name, lp.attempted, err)
				continue
			}
			s.times = append(s.times, t.wall)
			s.cpu = append(s.cpu, t.cpu)
		}
		if ok && len(sides) == 2 {
			if err := sameResults(sides[0].last, sides[1].last); err != nil {
				lp.failed++
				fmt.Fprintf(os.Stderr, "perfbench: traced and plain op %d differ: %v\n", lp.attempted, err)
			}
		}
	}
	lp.wall, lp.cpu = time.Since(start), cpuTime()-startCPU
	return lp
}

func sameResults(a, b []*xtalksta.AnalysisResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if err := sameBits(a[i], b[i]); err != nil {
			return fmt.Errorf("%s: %w", a[i].Mode, err)
		}
	}
	return nil
}

func msOr0(d time.Duration, ok bool) float64 {
	if !ok {
		return 0
	}
	return ms(d)
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans writes the traced run's spans, kept in memory until now,
// as a Chrome trace into the benchmark's build directory.
func writeSpans(spans *spanLog, workload string, seed int64) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := spans.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
