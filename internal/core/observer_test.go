package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"testing"

	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// TestPassStatsRecorded: Result.PassStats must cover every pass, lead
// with the one-step seed pass, count real work, and show a
// non-increasing longest-path bound across iterative refinements on
// this circuit; Result.LongestPath is the lowest pass.
func TestPassStatsRecorded(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 711)
	res := runMode(t, c, calc, Options{Mode: Iterative})
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
	}
	// The stop rule of runPasses, with its exact comparison: refinement
	// goes on only after a strict improvement, so every pass but the
	// last improved on the one before, and the last did not unless the
	// pass cap ended the loop. The last pass may be looser.
	L := func(i int) float64 { return res.PassStats[i].LongestPath }
	last := len(res.PassStats) - 1
	for i := 1; i < last; i++ {
		if L(i) >= L(i-1)-1e-12 {
			t.Errorf("pass %d (%v) did not improve on pass %d (%v), yet refinement went on", i+1, L(i), i, L(i-1))
		}
	}
	if last > 0 && res.Passes < maxPasses && !(L(last) >= L(last-1)-1e-12) {
		t.Errorf("last pass %d (%v) improved on pass %d (%v), yet refinement stopped", last+1, L(last), last, L(last-1))
	}
	lowest := math.Inf(1)
	for _, ps := range res.PassStats {
		lowest = math.Min(lowest, ps.LongestPath)
	}
	if lowest != res.LongestPath {
		t.Errorf("lowest pass longest %v != Result.LongestPath %v", lowest, res.LongestPath)
	}
}

// TestPassEventsMatchPassStats: the event log's "pass" records, written
// from a parallel run, must mirror Result.PassStats one for one and in
// order — the stream -v prints is the same record the Result carries.
func TestPassEventsMatchPassStats(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 712)
	var buf bytes.Buffer
	res := runMode(t, c, calc, Options{
		Mode: Iterative, Workers: runtime.NumCPU(), Events: obs.NewEventLog(&buf),
	})
	var passes []passRecord
	dec := json.NewDecoder(&buf)
	for {
		var rec struct {
			Event  string     `json:"event"`
			Fields passRecord `json:"fields"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("event log is not JSONL: %v", err)
		}
		if rec.Event == "pass" {
			passes = append(passes, rec.Fields)
		}
	}
	if len(passes) != len(res.PassStats) || len(passes) != res.Passes {
		t.Fatalf("event log has %d pass records, PassStats %d, engine ran %d passes",
			len(passes), len(res.PassStats), res.Passes)
	}
	for i, ps := range res.PassStats {
		want := passRecord{Pass: ps.Pass, ArcEvaluations: ps.ArcEvaluations, LongestNs: ps.LongestPath * 1e9}
		if passes[i] != want {
			t.Errorf("pass record %d = %+v, PassStats gives %+v", i, passes[i], want)
		}
	}
}

// passRecord is the part of a "pass" event-log record that PassStat
// also carries.
type passRecord struct {
	Pass           int     `json:"pass"`
	ArcEvaluations int64   `json:"arc_evaluations"`
	LongestNs      float64 `json:"longest_ns"`
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

// TestCouplingCountersExact: evalArc tallies its coupling decisions per
// arc and publishes each total once, so the totals must stay exact. In
// OneStep with tier-0 off every evaluated arc driving a coupled net
// classifies each neighbour once, as active or grounded, so the two
// totals sum to the number of (evaluated arc, coupled neighbour) pairs
// for any worker count. An Iterative run's totals must not depend on
// the worker count either.
func TestCouplingCountersExact(t *testing.T) {
	c, calc := buildExtracted(t, 200, 16, 8, 715)
	type totals struct{ active, grounded int64 }
	run := func(opts Options) (*Engine, *Result, totals) {
		t.Helper()
		reg := obs.NewRegistry()
		opts.Metrics = reg
		eng, err := NewEngine(c, calc, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		d := reg.Snapshot()
		return eng, res, totals{
			d.Counters[obs.MCouplingActive],
			d.Counters[obs.MCouplingGrounded],
		}
	}

	var oneStep []totals
	for _, w := range []int{1, 4} {
		eng, res, got := run(Options{Mode: OneStep, Workers: w})
		// Count the pairs from the snapshot's coupling CSR and the pass's
		// candidate pins: an input pin is evaluated when its net is
		// calculated with a finite arrival in the switching direction.
		st := res.Replay.passes[len(res.Replay.passes)-1]
		var pairs int64
		for _, cell := range c.Cells {
			if cell.Kind == netlist.DFF || cell.Out == netlist.NoNet || eng.info[cell.Out-1].sumCc == 0 {
				continue
			}
			lo, hi := eng.cc.Span(cell.Out)
			for dOut := 0; dOut < 2; dOut++ {
				for _, in := range cell.In {
					if is := &st[in-1]; is.calculated && !math.IsInf(is.arrival[1-dOut], -1) {
						pairs += int64(hi - lo)
					}
				}
			}
		}
		if pairs == 0 {
			t.Fatal("no coupled arcs evaluated; the check is vacuous")
		}
		if got.active+got.grounded != pairs {
			t.Errorf("OneStep workers=%d: active %d + grounded %d = %d; want %d evaluated (arc, neighbour) pairs",
				w, got.active, got.grounded, got.active+got.grounded, pairs)
		}
		oneStep = append(oneStep, got)
	}
	if oneStep[0] != oneStep[1] {
		t.Errorf("OneStep coupling totals differ by worker count: 1 worker %+v, 4 workers %+v", oneStep[0], oneStep[1])
	}

	_, _, seq := run(Options{Mode: Iterative, Workers: 1})
	_, _, par := run(Options{Mode: Iterative, Workers: 4})
	if seq != par {
		t.Errorf("Iterative coupling totals differ by worker count: 1 worker %+v, 4 workers %+v", seq, par)
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
