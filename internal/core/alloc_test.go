package core

import (
	"testing"
)

// TestCompileAllocsBounded locks in the allocation profile of the
// compile step after the SoA/CSR refactor: the snapshot's coupling
// CSR, sink-delay CSR, clock-sink CSR and dataflow adjacency are a
// fixed number of slab allocations plus prefix-sum scratch, so the
// count stays far below one allocation per net. A reversion to
// per-net maps or per-cell adjacency slices trips the bound.
func TestCompileAllocsBounded(t *testing.T) {
	c, calc := buildExtracted(t, 2000, 160, 10, 404)
	nets := len(c.Nets)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Compile(c, calc, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Post-refactor measurement is well under 1 alloc/net; 2/net means
	// per-net allocation crept back into the snapshot build.
	if maxAllocs := 2 * float64(nets); allocs > maxAllocs {
		t.Fatalf("Compile allocated %.0f times for %d nets (bound %.0f)",
			allocs, nets, maxAllocs)
	}
	t.Logf("Compile: %.0f allocs for %d nets (%.3f/net)", allocs, nets, allocs/float64(nets))
}

// TestAnalyzeAllocsBounded locks in the steady-state allocation count
// of one full analysis on a warm session: each pass allocates one
// netState slab (the replay keeps it) and its dirty set's two per-net
// slices, each run one best-case slab over the arc index (the replay
// takes it), and the characterization cache absorbs the transient
// solves. So a repeat analysis makes a fixed number of allocations per
// pass, well under one per net, not the tens-of-allocations-per-arc of
// the cold run. Tier-0 adds its per-analysis memo, one more slab over
// the same index that also holds the brackets. A per-cell row in either
// slab, or a per-cell copy into the replay, costs about one allocation
// per net and trips the bound.
func TestAnalyzeAllocsBounded(t *testing.T) {
	c, calc := buildExtracted(t, 800, 64, 8, 405)
	nets := len(c.Nets)
	for _, tc := range []struct {
		name   string
		opts   Options
		perNet float64
	}{
		{"all-Newton", Options{Mode: Iterative}, 0.25},
		{"tier-0", Options{Mode: Iterative, Tier0: true}, 0.25},
	} {
		eng, err := NewEngine(c, calc, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the characterization cache.
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if maxAllocs := tc.perNet * float64(nets); allocs > maxAllocs {
			t.Errorf("%s: warm Analyze allocated %.0f times for %d nets (bound %.0f)",
				tc.name, allocs, nets, maxAllocs)
		}
		t.Logf("%s: warm Analyze: %.0f allocs for %d nets (%.2f/net)", tc.name, allocs, nets, allocs/float64(nets))
	}
}

func BenchmarkCompile(b *testing.B) {
	c, calc := buildExtracted(b, 2000, 160, 10, 404)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(c, calc, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeWarm(b *testing.B) {
	c, calc := buildExtracted(b, 800, 64, 8, 405)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
