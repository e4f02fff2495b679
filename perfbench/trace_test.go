package main

import (
	"math"
	"testing"

	"xtalksta"
)

// small returns a workload at a small scale, so that a test drives the
// same code paths in seconds.
func small(name string) *workload {
	w := *workloads[name]
	w.scale = 0.02
	return &w
}

func buildSides(t *testing.T, w *workload) (plain, traced *side) {
	t.Helper()
	plain, traced = newSide(w, 7, false), newSide(w, 7, true)
	for _, s := range []*side{plain, traced} {
		if err := s.build(); err != nil {
			t.Fatal(err)
		}
	}
	return plain, traced
}

// The traced path must not change what it measures: a traced Iterative
// run gives the untraced run's delay bits and the same tier-0 and arc
// evaluation counts, and the timed evaluator sees every arc evaluation.
func TestTracedRunIsTransparent(t *testing.T) {
	w := small("warm")
	plain, traced := buildSides(t, w)
	want, err := plain.d.Analyze(analysisOptions(xtalksta.Iterative, w.workers))
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.session(xtalksta.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	if want.Tier0Hits == 0 {
		t.Fatal("untraced run made no tier-0 decisions; the comparison would prove nothing")
	}
	if math.Float64bits(got.LongestPath) != math.Float64bits(want.LongestPath) {
		t.Errorf("LongestPath %v traced vs %v untraced", got.LongestPath, want.LongestPath)
	}
	if got.Tier0Hits != want.Tier0Hits {
		t.Errorf("Tier0Hits %d traced vs %d untraced", got.Tier0Hits, want.Tier0Hits)
	}
	if got.ArcEvaluations != want.ArcEvaluations {
		t.Errorf("ArcEvaluations %d traced vs %d untraced", got.ArcEvaluations, want.ArcEvaluations)
	}
	if err := sameBits(got, want); err != nil {
		t.Error(err)
	}
	if calls := traced.lay.calc.totals(); calls.requests != got.ArcEvaluations || calls.hits+calls.misses != calls.requests {
		t.Errorf("timed evaluator saw %d requests (%d hits, %d misses), run made %d arc evaluations",
			calls.requests, calls.hits, calls.misses, got.ArcEvaluations)
	}
}

// Every workload's op gives the same bits on the plain and the traced
// side and passes its own checks.
func TestWorkloadOpsAgreeTracedAndPlain(t *testing.T) {
	for _, name := range []string{"table", "warm", "eco"} {
		t.Run(name, func(t *testing.T) {
			w := small(name)
			plain, traced := newSide(w, 7, false), newSide(w, 7, true)
			setup := w.setup
			if name == "table" {
				// The table's set-up checks reference delays recorded at
				// its own scale.
				setup = (*side).build
			}
			for _, s := range []*side{plain, traced} {
				if err := setup(s); err != nil {
					t.Fatal(err)
				}
			}
			traced.lay.reset()
			for i := 0; i < 2; i++ {
				for _, s := range []*side{plain, traced} {
					if _, err := w.op(s); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if name != "table" {
						if err := w.check(s); err != nil {
							t.Fatalf("op %d check: %v", i, err)
						}
					}
				}
				if err := sameResults(plain.last, traced.last); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for _, s := range []*side{plain, traced} {
				if err := w.finish(s); err != nil {
					t.Fatal(err)
				}
			}
			if traced.lay.ops != 2 {
				t.Errorf("traced side accounted %d ops, want 2", traced.lay.ops)
			}
		})
	}
}
