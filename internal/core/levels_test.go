package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// rankBucketStages compiles the extracted test circuit and hands the
// snapshot to check, then edits the circuit's most coupled clock net (a
// coupling added to every clock net it does not touch yet, one removed,
// the net decoupled) and hands each recompiled snapshot to check again.
func rankBucketStages(t *testing.T, check func(stage string, c *netlist.Circuit, cd *Compiled)) {
	t.Helper()
	c, calc := buildExtracted(t, 160, 12, 8, 820)
	var hub netlist.NetID
	for _, n := range c.Nets {
		if n.IsClock && n.Driver != netlist.NoCell && (hub == netlist.NoNet || len(n.Par.Couplings) > len(c.Net(hub).Par.Couplings)) {
			hub = n.ID
		}
	}
	if hub == netlist.NoNet || len(c.Net(hub).Par.Couplings) < 8 {
		t.Fatalf("no clock net with a high coupling degree (best %v)", hub)
	}
	t.Logf("clock net %s has %d couplings", c.Net(hub).Name, len(c.Net(hub).Par.Couplings))
	stage := func(name string) {
		t.Helper()
		cd, err := Compile(c, calc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(name, c, cd)
	}
	stage("extracted")

	// Add: couple the hub to the other clock nets it does not touch yet.
	coupled := map[netlist.NetID]bool{hub: true}
	for _, cp := range c.Net(hub).Par.Couplings {
		coupled[cp.Other] = true
	}
	added := 0
	for _, n := range c.Nets {
		if n.IsClock && !coupled[n.ID] {
			c.Net(hub).Par.Couplings = append(c.Net(hub).Par.Couplings, netlist.Coupling{Other: n.ID, C: 2e-15})
			n.Par.Couplings = append(n.Par.Couplings, netlist.Coupling{Other: hub, C: 2e-15})
			added++
		}
	}
	if added == 0 {
		t.Fatal("no clock net left to couple to the hub")
	}
	t.Logf("after add the hub has %d couplings", len(c.Net(hub).Par.Couplings))
	stage("add")

	// unpair removes the coupling between a and b on both sides.
	unpair := func(a, b netlist.NetID) {
		for _, pair := range [][2]netlist.NetID{{a, b}, {b, a}} {
			par := &c.Net(pair[0]).Par
			kept := par.Couplings[:0]
			for _, cp := range par.Couplings {
				if cp.Other != pair[1] {
					kept = append(kept, cp)
				}
			}
			par.Couplings = kept
		}
	}
	// Remove: drop the hub's first coupling.
	unpair(hub, c.Net(hub).Par.Couplings[0].Other)
	stage("remove")

	// Decouple: the hub loses every coupling.
	for _, cp := range append([]netlist.Coupling(nil), c.Net(hub).Par.Couplings...) {
		unpair(hub, cp.Other)
	}
	if n := len(c.Net(hub).Par.Couplings); n != 0 {
		t.Fatalf("hub still has %d couplings after decoupling", n)
	}
	stage("decouple")
}

// bucketPhase is one phase's rank buckets, as the tests walk them.
type bucketPhase struct {
	name  string
	lv    levels
	clock bool
}

func bucketPhases(cd *Compiled) []bucketPhase {
	return []bucketPhase{{phaseClock, cd.clockLv, true}, {phaseMain, cd.mainLv, false}}
}

// TestRankBucketInvariants: each phase's bucket offsets span its cells,
// the buckets ascend strictly by rank, and every non-flip-flop cell sits
// in exactly one bucket, of its own rank and phase — the structure the
// level executor's barrier-per-bucket walk rests on. Checked on the
// extracted circuit and after each edit of its most coupled clock net.
func TestRankBucketInvariants(t *testing.T) {
	rankBucketStages(t, func(stage string, c *netlist.Circuit, cd *Compiled) {
		seen := make(map[netlist.CellID]bool)
		for _, ph := range bucketPhases(cd) {
			lv := ph.lv
			if len(lv.off) == 0 || lv.off[0] != 0 || int(lv.off[len(lv.off)-1]) != len(lv.cells) {
				t.Fatalf("%s %s: bucket offsets %v do not span %d cells", stage, ph.name, lv.off, len(lv.cells))
			}
			prev := -1
			for b := 0; b+1 < len(lv.off); b++ {
				bucket := lv.cells[lv.off[b]:lv.off[b+1]]
				if len(bucket) == 0 {
					t.Fatalf("%s %s: bucket %d is empty", stage, ph.name, b)
				}
				r := cd.netRank[c.Cell(bucket[0]).Out]
				if r <= prev {
					t.Fatalf("%s %s: bucket %d has rank %d after rank %d", stage, ph.name, b, r, prev)
				}
				prev = r
				for _, cid := range bucket {
					cell := c.Cell(cid)
					if seen[cid] {
						t.Fatalf("%s %s: cell %s is in two buckets", stage, ph.name, cell.Name)
					}
					seen[cid] = true
					if got := cd.netRank[cell.Out]; got != r {
						t.Fatalf("%s %s: cell %s of rank %d in the rank-%d bucket", stage, ph.name, cell.Name, got, r)
					}
					if c.Net(cell.Out).IsClock != ph.clock {
						t.Fatalf("%s %s: cell %s is in the wrong phase", stage, ph.name, cell.Name)
					}
				}
			}
		}
		for _, cell := range c.Cells {
			if cell.Kind != netlist.DFF && !seen[cell.ID] {
				t.Fatalf("%s: cell %s is in no bucket", stage, cell.Name)
			}
		}
	})
}

// TestRankBucketReads: each cell reads only nets of strictly lower rank
// than its output — its inputs, and the coupled neighbors
// netCalculatedAt counts as calculated — so the cells of one bucket
// never read each other and may run in any order. Checked on the same
// circuit and edits as TestRankBucketInvariants; each stage must read
// calculated neighbors in the main phase, and the added clock couplings
// in the clock phase, so the rule is not vacuous.
func TestRankBucketReads(t *testing.T) {
	rankBucketStages(t, func(stage string, c *netlist.Circuit, cd *Compiled) {
		reads := map[string]int{}
		for _, ph := range bucketPhases(cd) {
			for _, cid := range ph.lv.cells {
				cell := c.Cell(cid)
				r := cd.netRank[cell.Out]
				for _, in := range cell.In {
					if cd.netRank[in] >= r {
						t.Fatalf("%s %s: cell %s reads input of rank %d >= %d", stage, ph.name, cell.Name, cd.netRank[in], r)
					}
				}
				for _, cp := range c.Net(cell.Out).Par.Couplings {
					if !cd.netCalculatedAt(cp.Other, r) {
						continue
					}
					if cd.netRank[cp.Other] >= r {
						t.Fatalf("%s %s: cell %s reads neighbor of rank %d >= %d", stage, ph.name, cell.Name, cd.netRank[cp.Other], r)
					}
					reads[ph.name]++
				}
			}
		}
		if reads[phaseMain] == 0 {
			t.Fatalf("%s: no main-phase cell reads a calculated neighbor; the check is vacuous", stage)
		}
		if stage == "add" && reads[phaseClock] == 0 {
			t.Fatal("add: no clock-phase cell reads a calculated neighbor; the check is vacuous")
		}
	})
}

// parallelWorkers lists the worker counts compared against the
// sequential (Workers: 1) baseline, which walks each phase in level
// order.
func parallelWorkers() []int {
	ws := []int{2, 8}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 8 {
		ws = append(ws, n)
	}
	return ws
}

// TestSchedulerParity: the parallel bucket executor must reproduce the
// sequential level-order sweep bit-for-bit across every mode and
// option shape, at any worker count — the order-independence contract
// of the rank-based neighbor rule.
func TestSchedulerParity(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"best", Options{Mode: BestCase}},
		{"doubled", Options{Mode: StaticDoubled}},
		{"worst", Options{Mode: WorstCase}},
		{"onestep", Options{Mode: OneStep}},
		{"iterative", Options{Mode: Iterative}},
	}
	for _, seed := range []int64{821, 822, 823} {
		c, calc := buildExtracted(t, 150, 12, 8, seed)
		for _, v := range variants {
			base := v.opts
			base.Workers = 1
			want := runMode(t, c, calc, base)
			for _, w := range parallelWorkers() {
				opts := v.opts
				opts.Workers = w
				got := runMode(t, c, calc, opts)
				bitEqual(t, want, got, fmt.Sprintf("seed %d %s w=%d", seed, v.name, w))
			}
		}
	}
}

// TestSchedulerParityECOSeeded: seeded (ECO) re-runs must stay exact
// under the parallel executor — the dirty-set expansion happens in the
// cell callbacks, possibly on worker goroutines.
func TestSchedulerParityECOSeeded(t *testing.T) {
	for _, seed := range []int64{831, 832, 833} {
		c, calc := buildExtracted(t, 140, 12, 7, seed)
		a, b := firstCoupledPair(t, c)
		factor := 1.4
		for _, mode := range []Mode{OneStep, Iterative} {
			base := Options{Mode: mode, Workers: 1}
			before := runMode(t, c, calc, base)
			// Cumulative edit: never "restored" by a reciprocal multiply,
			// which would not round-trip in floating point.
			scalePair(c, a, b, factor)
			factor += 0.3
			want := runMode(t, c, calc, base)
			for _, w := range append([]int{1}, parallelWorkers()...) {
				opts := Options{Mode: mode, Workers: w}
				got := runSeeded(t, c, calc, opts, before, []netlist.NetID{a, b})
				ctx := fmt.Sprintf("seed %d %s w=%d", seed, mode, w)
				bitEqual(t, want, got, ctx)
				if got.ECO == nil || got.ECO.ReusedLines == 0 {
					t.Fatalf("%s: expected reused lines, got %+v", ctx, got.ECO)
				}
			}
		}
	}
}

// TestLevelExecutorAbortsOnError: a failing cell stops its phase —
// the error comes back, no cell of a later bucket runs, and in a
// parallel bucket the other goroutines take no further chunk — inline
// and at any worker count.
func TestLevelExecutorAbortsOnError(t *testing.T) {
	c, calc := buildExtracted(t, 400, 16, 6, 834)
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewEngine(c, calc, Options{Mode: BestCase, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// Fail in the widest main-phase bucket that is not the last.
		lv := eng.mainLv
		fail := 0
		for b := 0; b+2 < len(lv.off); b++ {
			if lv.off[b+1]-lv.off[b] > lv.off[fail+1]-lv.off[fail] {
				fail = b
			}
		}
		width := int64(lv.off[fail+1] - lv.off[fail])
		if width < 2*8 || fail+2 >= len(lv.off) {
			t.Fatalf("no wide inner bucket to fail in (widest %d cells, bucket %d of %d)", width, fail, len(lv.off)-1)
		}
		failRank := eng.netRank[c.Cell(lv.cells[lv.off[fail]]).Out]
		var inBucket, later atomic.Int64
		var failed atomic.Bool
		do := func(cell *netlist.Cell, _ *tally) error {
			switch r := eng.netRank[cell.Out]; {
			case r > failRank:
				later.Add(1)
			case r == failRank:
				inBucket.Add(1)
				if failed.CompareAndSwap(false, true) {
					return errors.New("injected failure")
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		}
		if err := eng.runPhase(phaseMain, nil, new(tally), do); err == nil || err.Error() != "injected failure" {
			t.Fatalf("workers %d: got error %v, want the injected failure", workers, err)
		}
		if n := later.Load(); n != 0 {
			t.Errorf("workers %d: %d cells of later buckets ran after the failure", workers, n)
		}
		if n := inBucket.Load(); n >= width {
			t.Errorf("workers %d: all %d cells of the failing bucket ran; the stop flag was not honored", workers, n)
		}
		t.Logf("workers %d: failed in bucket %d of %d (%d cells); %d of its cells ran", workers, fail, len(lv.off)-1, width, inBucket.Load())
	}
}

// TestExecutorRunsOnlyRecomputedCells: the executor runs exactly the
// cells its passes recompute — every cell of a full pass, only the dirty
// cells of a delta or seeded pass — so the cells it counts
// (worker_cells_total + sequential_cells_total) equal the run's summed
// PassStats.RecalculatedWires, for a full Iterative run (tier-0 off: its
// frontier estimate also runs on the executor) and a seeded re-run,
// inline and with workers.
func TestExecutorRunsOnlyRecomputedCells(t *testing.T) {
	c, calc := buildExtracted(t, 170, 14, 9, 835)
	var a, b netlist.NetID
	for _, n := range c.Nets {
		if n.Driver != netlist.NoCell && c.Cell(n.Driver).Kind != netlist.DFF && len(n.Par.Couplings) > 0 {
			a, b = n.ID, n.Par.Couplings[0].Other
			break
		}
	}
	check := func(ctx string, reg *obs.Registry, res *Result) {
		t.Helper()
		ran := reg.Counter(obs.MWorkerCells).Value() + reg.Counter(obs.MSequentialCells).Value()
		var recalc int64
		for _, ps := range res.PassStats {
			recalc += ps.RecalculatedWires
		}
		if ran != recalc {
			t.Errorf("%s: executor ran %d cells, the passes recomputed %d", ctx, ran, recalc)
		}
		if recalc == 0 {
			t.Errorf("%s: no cell recomputed; the check is vacuous", ctx)
		}
	}
	for _, w := range []int{1, 2} {
		reg := obs.NewRegistry()
		full := runMode(t, c, calc, Options{Mode: Iterative, Workers: w, Metrics: reg})
		if full.Passes < 3 {
			t.Fatalf("workers %d: %d passes; no delta pass to check", w, full.Passes)
		}
		check(fmt.Sprintf("full w=%d", w), reg, full)
		scalePair(c, a, b, 3)
		reg = obs.NewRegistry()
		seeded := runSeeded(t, c, calc, Options{Mode: Iterative, Workers: w, Metrics: reg}, full, []netlist.NetID{a, b})
		if seeded.ECO == nil || seeded.ECO.ReusedLines == 0 {
			t.Fatalf("workers %d: seeded run reused no lines (%+v)", w, seeded.ECO)
		}
		check(fmt.Sprintf("seeded w=%d", w), reg, seeded)
	}
}

// fullRefinement is the Iterative analysis without the delta frontier:
// every pass is the production sweep with every line dirty and nothing
// carried, under runPasses' stop rule and best-pass rule. It returns the
// reported (lowest, later on a tie) pass's state, the pass count and the
// arc evaluations spent.
func fullRefinement(t *testing.T, c *netlist.Circuit, calc *delaycalc.Calculator) ([]netState, int, int64) {
	t.Helper()
	eng, err := NewEngine(c, calc, Options{Mode: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.newFullPass()
	st, err := eng.sweep(OneStep, nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	arcs := ds.tally.calc.Requests
	delay, _ := eng.longest(st)
	best := st
	passes := 1
	for passes < maxPasses {
		ds := eng.newFullPass()
		next, err := eng.sweep(Iterative, snapshotQuiet(st), ds)
		if err != nil {
			t.Fatal(err)
		}
		arcs += ds.tally.calc.Requests
		passes++
		st = next
		newDelay, _ := eng.longest(st)
		if newDelay <= delay {
			best = st
		}
		if newDelay >= delay-1e-12 {
			break
		}
		delay = newDelay
	}
	return best, passes, arcs
}

// TestDeltaRefinementMatchesFull: the delta-convergent frontier must be
// invisible in the results — identical states and pass counts, fewer
// arc evaluations — and must report its carry-overs, which start at
// pass 2.
func TestDeltaRefinementMatchesFull(t *testing.T) {
	converged := false
	// Seed 823 has a neighbor whose quiescent time jumps from at or
	// below a victim's t_bcs to above it between refinement passes.
	for _, seed := range []int64{823, 835, 836, 837, 838} {
		c, calc := buildExtracted(t, 170, 14, 9, seed)
		full, fullPasses, fullArcs := fullRefinement(t, c, calc)
		reg := obs.NewRegistry()
		delta := runMode(t, c, calc, Options{Mode: Iterative, Metrics: reg})
		if delta.Passes != fullPasses {
			t.Fatalf("seed %d: delta refinement took %d passes, full %d", seed, delta.Passes, fullPasses)
		}
		arr, slew, quiet := delta.Replay.FinalArrivals(), delta.Replay.FinalSlews(), delta.Replay.FinalQuiets()
		for i := range full {
			for d := 0; d < 2; d++ {
				if math.Float64bits(full[i].arrival[d]) != math.Float64bits(arr[i][d]) ||
					math.Float64bits(full[i].slew[d]) != math.Float64bits(slew[i][d]) ||
					math.Float64bits(full[i].quiet[d]) != math.Float64bits(quiet[i][d]) {
					t.Fatalf("seed %d: net %d dir %d diverges from the full recompute", seed, i+1, d)
				}
			}
		}
		if delta.Passes < 3 {
			continue
		}
		converged = true
		skips := int64(0)
		for _, ps := range delta.PassStats[1:] {
			skips += ps.ConvergedSkips
		}
		if skips <= 0 {
			t.Errorf("seed %d: %d passes but no converged-line carry-overs", seed, delta.Passes)
		}
		if got := reg.Snapshot().Counters[obs.MPassConvergedSkips]; got != skips {
			t.Errorf("seed %d: metric %s = %d, PassStats sum %d", seed, obs.MPassConvergedSkips, got, skips)
		}
		if delta.ArcEvaluations >= fullArcs {
			t.Errorf("seed %d: delta refinement evaluated %d arcs, full %d — no work saved",
				seed, delta.ArcEvaluations, fullArcs)
		}
	}
	if !converged {
		t.Fatal("no test circuit took ≥3 passes; the delta path was never exercised")
	}
}

// TestRepeatRunBitIdentical: two runs on one engine share its session
// state (best-case cache, dirty-set pool), and the second must
// reproduce the first in every net's final state.
func TestRepeatRunBitIdentical(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 839)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, first, second, "re-run")
}
