package xtalksta

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/incremental"
)

// diffResults bit-compares two analysis results (longest path, pass
// count and, when both carry replay state, the full final per-line
// timing). Returns "" on an exact match. Unlike assertBitExact it never
// touches testing.T, so it is safe to call from worker goroutines.
func diffResults(want, got *AnalysisResult) string {
	if math.Float64bits(want.LongestPath) != math.Float64bits(got.LongestPath) {
		return fmt.Sprintf("longest path %.17g != reference %.17g", got.LongestPath, want.LongestPath)
	}
	if want.Passes != got.Passes {
		return fmt.Sprintf("passes %d != reference %d", got.Passes, want.Passes)
	}
	if want.Replay == nil || got.Replay == nil {
		return ""
	}
	kinds := []struct {
		name      string
		want, got [][2]float64
	}{
		{"arrival", want.Replay.FinalArrivals(), got.Replay.FinalArrivals()},
		{"slew", want.Replay.FinalSlews(), got.Replay.FinalSlews()},
		{"quiet", want.Replay.FinalQuiets(), got.Replay.FinalQuiets()},
	}
	for _, k := range kinds {
		for i := range k.want {
			for d := 0; d < 2; d++ {
				if math.Float64bits(k.want[i][d]) != math.Float64bits(k.got[i][d]) {
					return fmt.Sprintf("net %d dir %d %s %.17g != reference %.17g",
						i+1, d, k.name, k.got[i][d], k.want[i][d])
				}
			}
		}
	}
	return ""
}

// TestAnalyzeAllColdCacheSweep pins the serial five-mode sweep's
// contract: one compiled snapshot serves all five modes (one build,
// four reuses), and the characterization cache is cleared before each
// mode, so every row does the work of a standalone cold-cache analysis
// (ClearCache, then Analyze) with the same timing state.
func TestAnalyzeAllColdCacheSweep(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 31, Cells: 140, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := d.AnalyzeAllOpts(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builds, reuses := d.SnapshotStats()
	if builds != 1 || reuses != 4 {
		t.Errorf("snapshot builds/reuses = %d/%d, want 1/4 (one revision, one compile key, five modes)", builds, reuses)
	}
	if len(sweep) != len(Modes()) {
		t.Fatalf("sweep returned %d results, want %d", len(sweep), len(Modes()))
	}
	for i, m := range Modes() {
		d.Calc.ClearCache()
		cold, err := d.Analyze(AnalysisOptions{Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		got := sweep[i]
		if got.Mode != m {
			t.Fatalf("row %d is %s, want %s", i, got.Mode, m)
		}
		if diff := diffResults(cold, got); diff != "" {
			t.Errorf("%s: %s", m, diff)
		}
		if got.Simulations != cold.Simulations || got.ArcEvaluations != cold.ArcEvaluations {
			t.Errorf("%s: sweep row did %d simulations / %d arc evaluations, cold standalone run %d / %d",
				m, got.Simulations, got.ArcEvaluations, cold.Simulations, cold.ArcEvaluations)
		}
	}
}

// TestConcurrentCornerSessions runs the three process corners through
// AnalyzeCorner and a typical-corner Analyze from four goroutines on
// one fresh design, so cornerFor's memo and the per-slot snapshot
// cache are first reached concurrently. Every result must be
// Float64bits-identical to the serial AnalyzeCorners/Analyze on an
// identical design, with the same work, and each of the four snapshot
// slots must be compiled exactly once. Run with -race.
func TestConcurrentCornerSessions(t *testing.T) {
	params := circuitgen.Params{Seed: 32, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4}
	opts := AnalysisOptions{Mode: OneStep}
	refD, err := Generate(params, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := refD.AnalyzeCorners(opts)
	if err != nil {
		t.Fatal(err)
	}
	refTyp, err := refD.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}

	d, err := Generate(params, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*AnalysisResult, len(serial))
	errs := make([]error, len(serial))
	var typ *AnalysisResult
	var typErr error
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cr := range serial {
		wg.Add(1)
		go func(i int, corner Corner) {
			defer wg.Done()
			<-start
			got[i], errs[i] = d.AnalyzeCorner(corner, opts)
		}(i, cr.Corner)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		typ, typErr = d.Analyze(opts)
	}()
	close(start)
	wg.Wait()

	check := func(name string, want, res *AnalysisResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := diffResults(want, res); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		if res.ArcEvaluations != want.ArcEvaluations || res.Simulations != want.Simulations {
			t.Errorf("%s: %d arc evaluations / %d simulations, serial %d / %d",
				name, res.ArcEvaluations, res.Simulations, want.ArcEvaluations, want.Simulations)
		}
	}
	for i, cr := range serial {
		check("corner "+string(cr.Corner), cr.Result, got[i], errs[i])
	}
	check("typical", refTyp, typ, typErr)
	if builds, reuses := d.SnapshotStats(); builds != 4 || reuses != 0 {
		t.Errorf("snapshot builds/reuses = %d/%d, want 4/0 (one per corner slot plus the typical one)", builds, reuses)
	}
}

// TestConcurrentMixedAnalyzeEditSessions is the concurrency contract
// test: one writer goroutine walks the design through a chain of edit
// batches (alternating Design.Edit and Design.Reanalyze) while eight
// reader goroutines issue full Analyze calls against whatever revision
// is current. Every result must be bit-identical to the serial
// reference analysis of the revision it reports, proving both the
// session isolation and the copy-on-write snapshot invalidation. Run
// with -race.
func TestConcurrentMixedAnalyzeEditSessions(t *testing.T) {
	params := circuitgen.Params{Seed: 33, Cells: 110, DFFs: 8, Depth: 5, ClockFanout: 4}
	opts := AnalysisOptions{Mode: Iterative}
	build := func() *Design {
		d, err := Generate(params, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Serial reference: one result per revision of the edit chain.
	refD := build()
	rng := rand.New(rand.NewSource(77))
	const revs = 4
	refs := make(map[uint64]*AnalysisResult, revs+1)
	r, err := refD.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	refs[0] = r
	var batches [][]Edit
	for k := 1; k <= revs; k++ {
		var b []Edit
		for len(b) == 0 {
			b = incremental.RandomBatch(refD.Circuit, rng, 3)
		}
		batches = append(batches, b)
		if err := refD.Edit(b...); err != nil {
			t.Fatal(err)
		}
		if r, err = refD.Analyze(opts); err != nil {
			t.Fatal(err)
		}
		refs[uint64(k)] = r
	}

	// Concurrent phase on a freshly generated, identical design.
	d := build()
	res0, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffResults(refs[0], res0); diff != "" {
		t.Fatalf("generation is not deterministic: %s", diff)
	}

	var mu sync.Mutex
	var fails []string
	fail := func(format string, args ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: Edit and Reanalyze, in revision order
		defer wg.Done()
		prev := res0
		for k, b := range batches {
			if k%2 == 0 {
				if err := d.Edit(b...); err != nil {
					fail("writer: edit batch %d: %v", k, err)
					return
				}
				continue
			}
			nr, err := d.Reanalyze(prev, b)
			if err != nil {
				fail("writer: reanalyze batch %d: %v", k, err)
				return
			}
			rev := nr.Replay.Revision()
			ref := refs[rev]
			if ref == nil {
				fail("writer: reanalyze reported unknown revision %d", rev)
				return
			}
			if diff := diffResults(ref, nr); diff != "" {
				fail("writer: revision %d: %s", rev, diff)
				return
			}
			prev = nr
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) { // readers: full analyses of the live revision
			defer wg.Done()
			for it := 0; it < 2; it++ {
				res, err := d.Analyze(opts)
				if err != nil {
					fail("reader %d: %v", g, err)
					return
				}
				rev := res.Replay.Revision()
				ref := refs[rev]
				if ref == nil {
					fail("reader %d: analysis reported unknown revision %d", g, rev)
					return
				}
				if diff := diffResults(ref, res); diff != "" {
					fail("reader %d: revision %d: %s", g, rev, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The edit chain must have landed on the final revision, and the
	// snapshot cache must have rebuilt across revisions while serving
	// the readers from the cached builds.
	final, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Replay.Revision(); got != revs {
		t.Fatalf("final revision = %d, want %d", got, revs)
	}
	if diff := diffResults(refs[revs], final); diff != "" {
		t.Fatalf("final revision: %s", diff)
	}
	builds, reuses := d.SnapshotStats()
	if builds < 2 {
		t.Errorf("snapshot builds = %d, want >= 2 (copy-on-write invalidation across revisions)", builds)
	}
	if reuses < 1 {
		t.Errorf("snapshot reuses = %d, want >= 1", reuses)
	}
}

// TestConcurrentLUTSessionCounts: an AnalyzeLUT session counts its own
// work, each arc once, and leaves the design calculator's lifetime
// counters alone. Best case issues one request per arc whoever serves
// it (the LUT most arcs, the calculator the ones the LUT rejects), so
// the LUT run must report the exact run's arc evaluations; the
// calculator's counters never go down across it; and a two-worker LUT
// session run beside an exact analysis of the same design reports what
// it reports alone.
func TestConcurrentLUTSessionCounts(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 10, Cells: 150, DFFs: 12, Depth: 7, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	lut, err := d.Precharacterize(LUTConfig{
		Slews:  []float64{80e-12, 250e-12, 700e-12, 2e-9},
		Loads:  []float64{8e-15, 30e-15, 90e-15, 300e-15},
		Ratios: []float64{0, 0.35, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := d.Analyze(AnalysisOptions{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Calc.Counters()
	fast, err := d.AnalyzeLUT(lut, AnalysisOptions{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	after := d.Calc.Counters()
	if fast.ArcEvaluations != exact.ArcEvaluations {
		t.Errorf("best case through the LUT made %d arc evaluations, the exact calculator %d",
			fast.ArcEvaluations, exact.ArcEvaluations)
	}
	if after.Requests < before.Requests || after.Simulations < before.Simulations ||
		after.CacheHits < before.CacheHits || after.NewtonIterations < before.NewtonIterations {
		t.Errorf("calculator lifetime counters went down across AnalyzeLUT: %+v -> %+v", before, after)
	}

	opts := AnalysisOptions{Mode: OneStep, Workers: 2}
	alone, err := d.AnalyzeLUT(lut, opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg               sync.WaitGroup
		together         *AnalysisResult
		lutErr, exactErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		together, lutErr = d.AnalyzeLUT(lut, opts)
	}()
	go func() {
		defer wg.Done()
		_, exactErr = d.Analyze(AnalysisOptions{Mode: Iterative, Workers: 2})
	}()
	wg.Wait()
	if lutErr != nil || exactErr != nil {
		t.Fatalf("concurrent sessions: LUT %v, exact %v", lutErr, exactErr)
	}
	if together.ArcEvaluations != alone.ArcEvaluations {
		t.Errorf("LUT session beside an exact analysis reported %d arc evaluations, alone %d",
			together.ArcEvaluations, alone.ArcEvaluations)
	}
}
