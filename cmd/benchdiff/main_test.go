package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadWithEnv(t *testing.T) {
	p := writeTemp(t, "bench.json", `{
		"circuit": "s35932 scale=0.05",
		"env": {"go_version": "go1.24.0", "gomaxprocs": 16, "workers": 8,
		        "scheduler": "dataflow", "git_revision": "abc123def456"},
		"rows": [{"method": "Iterative", "delay_ns": 1.5, "runtime_ms": 800,
		          "passes": 3, "arc_evaluations": 10000}]
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env == nil {
		t.Fatal("env not parsed")
	}
	// A "scheduler" key from files recorded before the sweep executor
	// was unified is ignored.
	want := "go1.24.0 gomaxprocs=16 workers=8 rev=abc123def456"
	if got := envString(f); got != want {
		t.Errorf("envString = %q, want %q", got, want)
	}
	if f.Rows[0].DelayNs != 1.5 {
		t.Errorf("delay = %v, want 1.5", f.Rows[0].DelayNs)
	}
}

// TestSimulationsColumnOptional: rows recorded before the simulations
// column load with it absent and drop out of the work diff, while
// newer rows (including a genuine zero) keep it.
func TestSimulationsColumnOptional(t *testing.T) {
	old, err := load(writeTemp(t, "old.json", `{"circuit": "x",
		"rows": [{"method": "Iterative", "delay_ns": 1.5, "newton_evals": 900}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := load(writeTemp(t, "new.json", `{"circuit": "x",
		"rows": [{"method": "Iterative", "delay_ns": 1.5, "simulations": 0},
		         {"method": "Best case", "delay_ns": 1.0, "simulations": 120}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sims := func(r *benchRow) *int64 { return r.Simulations }
	if got := rowCounts(old, sims); len(got) != 0 {
		t.Errorf("old file simulations = %v, want none", got)
	}
	got := rowCounts(cur, sims)
	if v, ok := got["Iterative"]; !ok || v != 0 || got["Best case"] != 120 {
		t.Errorf("simulations = %v, want Iterative 0 and Best case 120", got)
	}
	if n := diffWarnOnly("simulations", rowCounts(old, sims), got, 25); n != 0 {
		t.Errorf("diff against a baseline without the column warned %d rows", n)
	}
}

func TestLoadWithoutEnv(t *testing.T) {
	// Files recorded before environment stamping (PR 3 and earlier) must
	// still load and be flagged as unattributed.
	p := writeTemp(t, "old.json", `{
		"circuit": "s35932 scale=0.05",
		"rows": [{"method": "Best case", "delay_ns": 1.0}]
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env != nil {
		t.Fatalf("expected nil env, got %+v", f.Env)
	}
	if got := envString(f); got != "(no environment recorded)" {
		t.Errorf("envString = %q", got)
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	p := writeTemp(t, "empty.json", `{"circuit": "x", "rows": []}`)
	if _, err := load(p); err == nil {
		t.Fatal("expected an error for a file with no rows")
	}
}

func TestLoadServerAndLatencySections(t *testing.T) {
	p := writeTemp(t, "bench.json", `{
		"circuit": "x",
		"rows": [{"method": "Iterative", "delay_ns": 1.5}],
		"latency": {"analysis_p50_ms": 10.5, "analysis_p99_ms": 31.0},
		"server": {"analyze_p50_ms": 0.2, "throughput_rps": 9000, "requests": 43131}
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Latency["analysis_p50_ms"] != 10.5 {
		t.Errorf("latency section: %v", f.Latency)
	}
	if f.Server["throughput_rps"] != 9000 || f.Server["requests"] != 43131 {
		t.Errorf("server section: %v", f.Server)
	}
	// Older files without the sections still load with nil maps.
	old, err := load(writeTemp(t, "old.json", `{"circuit":"x","rows":[{"method":"Best case","delay_ns":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if old.Latency != nil || old.Server != nil {
		t.Errorf("expected nil sections, got %v / %v", old.Latency, old.Server)
	}
}

// TestDiffWarnOnlyNeverGates: the latency/server diff flags drift but
// must never produce a failure — only a warn count.
func TestDiffWarnOnly(t *testing.T) {
	base := map[string]float64{"p50_ms": 1.0, "p99_ms": 4.0, "rps": 1000}
	cand := map[string]float64{"p50_ms": 1.1, "p99_ms": 8.0, "rps": 990}
	if got := diffWarnOnly("server", base, cand, 25); got != 1 {
		t.Errorf("warned rows = %d, want 1 (only p99 doubled)", got)
	}
	if got := diffWarnOnly("server", base, cand, 5); got != 2 {
		t.Errorf("warned rows at 5%% = %d, want 2", got)
	}
	// Missing sections on either side are informational no-ops.
	if got := diffWarnOnly("server", nil, cand, 25); got != 0 {
		t.Errorf("no-baseline warned = %d, want 0", got)
	}
	if got := diffWarnOnly("server", base, nil, 25); got != 0 {
		t.Errorf("no-candidate warned = %d, want 0", got)
	}
	if got := diffWarnOnly("server", nil, nil, 25); got != 0 {
		t.Errorf("both-missing warned = %d, want 0", got)
	}
	// A zero baseline with a nonzero candidate is infinite drift: warned.
	if got := diffWarnOnly("server", map[string]float64{"x": 0}, map[string]float64{"x": 3}, 25); got != 1 {
		t.Errorf("zero-baseline warned = %d, want 1", got)
	}
}
