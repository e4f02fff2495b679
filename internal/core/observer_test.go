package core

import (
	"fmt"
	"runtime"
	"testing"

	"xtalksta/internal/obs"
)

// TestPassStatsRecorded: Result.PassStats must cover every pass, lead
// with the one-step seed pass, count real work, and show a
// non-increasing longest-path bound across iterative refinements.
func TestPassStatsRecorded(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 711)
	res := runMode(t, c, calc, Options{Mode: Iterative, MaxPasses: 10})
	if len(res.PassStats) != res.Passes {
		t.Fatalf("PassStats has %d entries, Result.Passes is %d", len(res.PassStats), res.Passes)
	}
	if res.PassStats[0].Mode != OneStep {
		t.Errorf("pass 1 mode = %s, want the one-step seed pass", res.PassStats[0].Mode)
	}
	for i, ps := range res.PassStats {
		if ps.Pass != i+1 {
			t.Errorf("PassStats[%d].Pass = %d, want %d", i, ps.Pass, i+1)
		}
		if ps.ArcEvaluations <= 0 {
			t.Errorf("pass %d: no arc evaluations recorded", ps.Pass)
		}
		if ps.RecalculatedWires <= 0 {
			t.Errorf("pass %d: no recalculated wires recorded", ps.Pass)
		}
		if ps.Wall <= 0 {
			t.Errorf("pass %d: wall time not recorded", ps.Pass)
		}
		if i == 0 {
			continue
		}
		// Refinement can only tighten the bound; allow a sliver for
		// cache-quantization noise on the final (converged) pass.
		prev := res.PassStats[i-1].LongestPath
		if ps.LongestPath > prev*(1+1e-3) {
			t.Errorf("pass %d longest path %v exceeds pass %d's %v",
				ps.Pass, ps.LongestPath, i, prev)
		}
	}
	last := res.PassStats[len(res.PassStats)-1].LongestPath
	if last != res.LongestPath {
		t.Errorf("final pass longest %v != Result.LongestPath %v", last, res.LongestPath)
	}
}

// recordingObserver captures the callback sequence.
type recordingObserver struct {
	events []string
	stats  []PassStat
}

func (r *recordingObserver) PassStarted(pass int, mode Mode) {
	r.events = append(r.events, fmt.Sprintf("start %d %s", pass, mode))
}

func (r *recordingObserver) PassFinished(st PassStat) {
	r.events = append(r.events, fmt.Sprintf("finish %d", st.Pass))
	r.stats = append(r.stats, st)
}

// TestObserverCallbacks: started/finished must alternate per pass, on
// one goroutine (the recorder has no locking, so -race also verifies
// the threading contract).
func TestObserverCallbacks(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 712)
	rec := &recordingObserver{}
	res := runMode(t, c, calc, Options{
		Mode: Iterative, Workers: runtime.NumCPU(), Observer: rec,
	})
	if len(rec.stats) != res.Passes {
		t.Fatalf("observer saw %d passes, engine ran %d", len(rec.stats), res.Passes)
	}
	for i := 0; i < res.Passes; i++ {
		wantFinish := fmt.Sprintf("finish %d", i+1)
		if got := rec.events[2*i+1]; got != wantFinish {
			t.Errorf("event %d = %q, want %q", 2*i+1, got, wantFinish)
		}
	}
	for i, st := range rec.stats {
		if st != res.PassStats[i] {
			t.Errorf("observer stat %d differs from Result.PassStats", i)
		}
	}
}

// TestMetricsRegistryPopulated: an attached registry must agree with
// the Result's own counters and cover the coupling decisions and the
// sweep structure.
func TestMetricsRegistryPopulated(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 713)
	reg := obs.NewRegistry()
	res := runMode(t, c, calc, Options{Mode: Iterative, Metrics: reg})
	d := reg.Snapshot()
	if got := d.Counters[obs.MArcEvaluations]; got != res.ArcEvaluations {
		t.Errorf("%s = %d, Result.ArcEvaluations = %d", obs.MArcEvaluations, got, res.ArcEvaluations)
	}
	if got := d.Counters[obs.MSimulations]; got != res.Simulations {
		t.Errorf("%s = %d, Result.Simulations = %d", obs.MSimulations, got, res.Simulations)
	}
	if d.Counters[obs.MNewtonIters] <= 0 {
		t.Errorf("no Newton iterations recorded")
	}
	if d.Counters[obs.MCouplingActive] <= 0 {
		t.Errorf("no active coupling decisions recorded")
	}
	if got := d.Counters[obs.MPasses]; got != int64(res.Passes) {
		t.Errorf("%s = %d, Result.Passes = %d", obs.MPasses, got, res.Passes)
	}
	if d.Counters[obs.MRecalcWires] <= 0 {
		t.Errorf("no recalculated wires recorded")
	}
	if d.Counters[obs.MSequentialCells] <= 0 {
		t.Errorf("no sequentially swept cells recorded")
	}
}

// TestParallelCountersMatchSequential: with the single-flight delay
// calculator the full counter set — including simulations and Newton
// iterations — must be identical for any worker count.
func TestParallelCountersMatchSequential(t *testing.T) {
	c, calc := buildExtracted(t, 200, 16, 8, 714)
	seq := runMode(t, c, calc, Options{Mode: Iterative, Workers: 1})
	seqCounters := calc.Counters()

	c2, calc2 := buildExtracted(t, 200, 16, 8, 714)
	par := runMode(t, c2, calc2, Options{Mode: Iterative, Workers: 4})
	parCounters := calc2.Counters()

	if seq.LongestPath != par.LongestPath {
		t.Errorf("longest path differs: %v vs %v", seq.LongestPath, par.LongestPath)
	}
	if seqCounters != parCounters {
		t.Errorf("counter totals differ:\n  sequential %+v\n  parallel   %+v", seqCounters, parCounters)
	}
}
