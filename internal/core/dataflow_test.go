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

// TestDataflowGraphInvariants: the per-phase dependency graphs must be
// structurally consistent CSR DAGs whose counters drain to zero — the
// property the wavefront's termination argument rests on.
func TestDataflowGraphInvariants(t *testing.T) {
	c, calc := buildExtracted(t, 160, 12, 8, 820)
	eng, err := NewEngine(c, calc, Options{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		g    *dfGraph
	}{{"clock", eng.dfClock}, {"main", eng.dfMain}} {
		n := len(g.g.cells)
		if len(g.g.indeg) != n || len(g.g.succOff) != n+1 {
			t.Fatalf("%s: inconsistent sizes", g.name)
		}
		if int(g.g.succOff[n]) != len(g.g.succ) {
			t.Fatalf("%s: succOff[%d]=%d, len(succ)=%d", g.name, n, g.g.succOff[n], len(g.g.succ))
		}
		var sum int32
		for _, d := range g.g.indeg {
			sum += d
		}
		if int(sum) != len(g.g.succ) {
			t.Fatalf("%s: sum(indeg)=%d != %d edges", g.name, sum, len(g.g.succ))
		}
		// Every edge must go to a strictly higher-rank output (the DAG
		// property) and a Kahn simulation must consume every node.
		deps := append([]int32(nil), g.g.indeg...)
		queue := append([]int32(nil), g.g.roots...)
		seen := 0
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			seen++
			ru := eng.netRank[c.Cell(g.g.cells[u]).Out]
			for j := g.g.succOff[u]; j < g.g.succOff[u+1]; j++ {
				v := g.g.succ[j]
				if rv := eng.netRank[c.Cell(g.g.cells[v]).Out]; rv <= ru {
					t.Fatalf("%s: edge %d->%d not rank-increasing (%d -> %d)", g.name, u, v, ru, rv)
				}
				deps[v]--
				if deps[v] == 0 {
					queue = append(queue, v)
				}
				if deps[v] < 0 {
					t.Fatalf("%s: node %d decremented below zero", g.name, v)
				}
			}
		}
		if seen != n {
			t.Fatalf("%s: Kahn consumed %d of %d nodes (cycle or stranded counter)", g.name, seen, n)
		}
	}
}

// TestDataflowGraphComplete: every node's predecessors are exactly the
// in-phase drivers of its fanin nets plus the in-phase drivers of its
// coupled neighbors of strictly lower (reachable) rank, each listed
// once — a graph that drops or invents an edge fails here even when it
// stays a consistent DAG. The circuit's most coupled clock net is then
// edited (a coupling added, one removed, the net decoupled) and each
// recompiled graph is checked again.
func TestDataflowGraphComplete(t *testing.T) {
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
	// check verifies both graphs and returns, per phase, how many
	// dependencies came from coupling (so the rule is not vacuous).
	check := func(stage string) (clockCC, mainCC int) {
		t.Helper()
		cd, err := Compile(c, calc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range []struct {
			name string
			g    *dfGraph
			cc   *int
		}{{"clock", cd.dfClock, &clockCC}, {"main", cd.dfMain, &mainCC}} {
			g := ph.g
			nodeOf := map[netlist.CellID]int32{}
			for i, cid := range g.cells {
				nodeOf[cid] = int32(i)
			}
			got := make([][]int32, len(g.cells))
			for u := range g.cells {
				for _, v := range g.succ[g.succOff[u]:g.succOff[u+1]] {
					got[v] = append(got[v], int32(u))
				}
			}
			var roots []int32
			for v, cid := range g.cells {
				cell := c.Cell(cid)
				want := map[int32]bool{}
				dep := func(net netlist.NetID) bool {
					p, ok := nodeOf[c.Net(net).Driver]
					if ok {
						want[p] = true
					}
					return ok
				}
				for _, in := range cell.In {
					dep(in)
				}
				outRank := cd.netRank[cell.Out]
				for _, cp := range c.Net(cell.Out).Par.Couplings {
					if r := cd.netRank[cp.Other]; r >= 0 && r < outRank && dep(cp.Other) {
						*ph.cc++
					}
				}
				listed := map[int32]bool{}
				for _, p := range got[v] {
					if listed[p] {
						t.Fatalf("%s %s: node %d (%s) lists predecessor %d twice", stage, ph.name, v, cell.Name, p)
					}
					listed[p] = true
					if !want[p] {
						t.Fatalf("%s %s: node %d (%s) has extra predecessor %d (%s)", stage, ph.name, v, cell.Name, p, c.Cell(g.cells[p]).Name)
					}
				}
				if len(listed) != len(want) || int(g.indeg[v]) != len(want) {
					t.Fatalf("%s %s: node %d (%s) has %d predecessors (indeg %d), want %d",
						stage, ph.name, v, cell.Name, len(listed), g.indeg[v], len(want))
				}
				if len(want) == 0 {
					roots = append(roots, int32(v))
				}
			}
			if fmt.Sprint(roots) != fmt.Sprint(g.roots) {
				t.Fatalf("%s %s: roots %v, want %v", stage, ph.name, g.roots, roots)
			}
		}
		if mainCC == 0 {
			t.Fatalf("%s: no main-phase coupling dependencies; the check is vacuous", stage)
		}
		return clockCC, mainCC
	}
	check("extracted")

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
	if clockCC, _ := check("add"); clockCC == 0 {
		t.Fatal("add: no clock-phase coupling dependencies; the check is vacuous")
	}
	t.Logf("after add the hub has %d couplings", len(c.Net(hub).Par.Couplings))

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
	check("remove")

	// Decouple: the hub loses every coupling.
	for _, cp := range append([]netlist.Coupling(nil), c.Net(hub).Par.Couplings...) {
		unpair(hub, cp.Other)
	}
	if n := len(c.Net(hub).Par.Couplings); n != 0 {
		t.Fatalf("hub still has %d couplings after decoupling", n)
	}
	check("decouple")
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

// TestSchedulerParity: the parallel dataflow wavefront must reproduce
// the sequential level-order sweep bit-for-bit across every mode and
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
		{"esperance", Options{Mode: Iterative, Esperance: true}},
		{"windows", Options{Mode: Iterative, Windows: true}},
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
// under the parallel wavefront — the dirty-set expansion happens in
// cell completion callbacks, possibly on worker goroutines.
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

// TestDataflowAbortsOnError: once a worker fails, parked and running
// workers must stop instead of draining the remaining ready cells.
func TestDataflowAbortsOnError(t *testing.T) {
	c, calc := buildExtracted(t, 60, 6, 4, 834)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	// One wide synthetic graph: every node is a root. The callback never
	// touches the cell, so a repeated zero CellID is fine.
	const n = 500
	g := &dfGraph{
		cells:   make([]netlist.CellID, n),
		indeg:   make([]int32, n),
		succOff: make([]int32, n+1),
	}
	for i := int32(0); i < n; i++ {
		g.roots = append(g.roots, i)
	}
	workers := 8
	var calls atomic.Int64
	var failed atomic.Bool
	do := func(cell *netlist.Cell) (bool, error) {
		calls.Add(1)
		if failed.CompareAndSwap(false, true) {
			return true, errors.New("injected failure")
		}
		time.Sleep(time.Millisecond)
		return true, nil
	}
	if _, err := eng.runDataflow("test", g, workers, do); err == nil {
		t.Fatal("expected the injected error to propagate")
	}
	if got := calls.Load(); got > int64(4*workers) {
		t.Errorf("workers processed %d cells after the failure (graph of %d); stop flag not honored", got, n)
	}
}

// fullRefinement is the Iterative analysis without the delta frontier:
// every pass is the production sweep with every line dirty and nothing
// carried, under runPasses' stop rule. It returns the final state, the
// pass count and the arc evaluations spent.
func fullRefinement(t *testing.T, c *netlist.Circuit, calc *delaycalc.Calculator) ([]netState, int, int64) {
	t.Helper()
	eng, err := NewEngine(c, calc, Options{Mode: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	eng.Calc.ResetStats()
	st, err := eng.sweep(OneStep, nil, eng.newFullPass())
	if err != nil {
		t.Fatal(err)
	}
	delay, _ := eng.longest(st)
	passes := 1
	for passes < maxPasses {
		next, err := eng.sweep(Iterative, snapshotQuiet(st), eng.newFullPass())
		if err != nil {
			t.Fatal(err)
		}
		passes++
		st = next
		newDelay, _ := eng.longest(st)
		if newDelay >= delay-1e-12 {
			break
		}
		delay = newDelay
	}
	arcs, _ := eng.Calc.Stats()
	return st, passes, arcs
}

// TestDeltaRefinementMatchesFull: the delta-convergent frontier must be
// invisible in the results — identical states and pass counts, fewer
// arc evaluations — and must report its carry-overs.
func TestDeltaRefinementMatchesFull(t *testing.T) {
	converged := false
	for _, seed := range []int64{835, 836, 837, 838} {
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
			continue // passes 1–2 recompute fully; nothing to skip yet
		}
		converged = true
		skips := int64(0)
		for _, ps := range delta.PassStats[2:] {
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
