package core

import (
	"sync"
	"sync/atomic"
	"time"

	"xtalksta/internal/netlist"
)

// Dataflow wavefront scheduling.
//
// The sweep executor releases a cell as soon as the cells it actually
// reads have finished, instead of barriering after every topological
// level (where the slowest cell of each level would stall every
// worker). Two kinds of cross-cell reads exist during a sweep (see the
// level-rule comment in levels.go):
//
//	(a) fanin: processCell reads the input nets' states, written by the
//	    cells driving them;
//	(b) coupling: the one-step rule (evalArc, quietPrev == nil) reads
//	    the quiescent time of a coupled neighbor exactly when
//	    netCalculatedAt says the neighbor counts as calculated — i.e.
//	    its rank is strictly below the victim's. Refinement passes read
//	    quietPrev (frozen last-pass data) instead and need no edge.
//
// A cell therefore depends on the in-phase driver cells of its fanin
// nets AND of its lower-rank coupled neighbors; the dependency edges of
// one phase form a DAG (every edge goes from a lower-rank output to a
// higher-rank one). Because netCalculatedAt is rank-based rather than
// completion-based, every worker count classifies every neighbor
// identically and the numeric results are bit-identical — the edges
// only guarantee that a state counted as calculated is fully written
// before it is read. PI seeds, the DFF launch seeding and cross-phase
// reads are satisfied by the sequential phase structure (clock phase
// completes before launch seeding, which completes before the main
// phase).
//
// Memory model: each dependency counter is decremented with an atomic
// RMW; the worker that observes zero has a happens-before edge from
// every predecessor's final state write (and everything else its do
// call published), so no additional locking is needed around the
// per-net states.

// Phase labels of the sweep's trace spans.
const (
	phaseClock = "clock"
	phaseMain  = "main"
)

// dfGraph is the per-phase dependency DAG in CSR form. Node i evaluates
// cells[i]; succ[succOff[i]:succOff[i+1]] lists the nodes unblocked by
// its completion; indeg[i] is the number of in-phase dependencies;
// roots are the nodes with none.
type dfGraph struct {
	cells   []netlist.CellID
	indeg   []int32
	succOff []int32
	succ    []int32
	roots   []int32
}

// buildDataflow constructs the per-phase dependency graphs over the
// level-ordered cells buildLevels returns (the edges need netRank).
func (e *Compiled) buildDataflow(clockOrder, mainOrder []netlist.CellID) {
	e.dfClock = e.buildPhaseGraph(clockOrder)
	e.dfMain = e.buildPhaseGraph(mainOrder)
}

// buildPhaseGraph builds one phase's graph in a single linear pass:
// each node's predecessors are collected once into a flat list, then
// the successor CSR is filled from it. A node lists its predecessors in
// discovery order (fanin drivers in pin order, then coupled neighbors'
// drivers in CSR order), each once; a successor list is in node order.
func (e *Compiled) buildPhaseGraph(cells []netlist.CellID) *dfGraph {
	g := &dfGraph{cells: cells}
	n := len(g.cells)
	g.indeg = make([]int32, n)
	g.succOff = make([]int32, n+1)
	if n == 0 {
		return g
	}
	// drvNode maps a net to the node of the cell driving it (a cell
	// drives exactly its Out net); -1 for primary inputs and for nets
	// driven outside this phase (their writes are frozen before the
	// phase starts).
	drvNode := make([]int32, len(e.C.Nets)+1)
	for i := range drvNode {
		drvNode[i] = -1
	}
	for i, cid := range g.cells {
		drvNode[e.C.Cell(cid).Out] = int32(i)
	}
	// Node i's deduplicated in-phase dependencies are
	// preds[predOff[i]:predOff[i+1]]: fanin drivers (edge a) and drivers
	// of coupled neighbors the rank rule counts as calculated (edge b).
	// seen[p] == i+1 marks p as already listed for node i.
	predOff := make([]int32, n+1)
	preds := make([]int32, 0, n)
	seen := make([]int32, n)
	for i, cid := range g.cells {
		stamp := int32(i) + 1
		add := func(net netlist.NetID) {
			if p := drvNode[net]; p >= 0 && seen[p] != stamp {
				seen[p] = stamp
				preds = append(preds, p)
				g.succOff[p+1]++
			}
		}
		cell := e.C.Cell(cid)
		for _, in := range cell.In {
			add(in)
		}
		outRank := e.netRank[cell.Out]
		inf := &e.info[cell.Out-1]
		for k := inf.ccLo; k < inf.ccHi; k++ {
			if other := e.cc.Nbr[k]; e.netCalculatedAt(other, outRank) {
				add(other)
			}
		}
		predOff[i+1] = int32(len(preds))
		g.indeg[i] = predOff[i+1] - predOff[i]
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
	}
	g.succ = make([]int32, len(preds))
	fill := make([]int32, n)
	copy(fill, g.succOff[:n])
	for i := 0; i < n; i++ {
		for _, p := range preds[predOff[i]:predOff[i+1]] {
			g.succ[fill[p]] = int32(i)
			fill[p]++
		}
		if g.indeg[i] == 0 {
			g.roots = append(g.roots, int32(i))
		}
	}
	return g
}

// runPhase executes one sweep phase and returns how many of its cells
// do evaluated: do reports false for a cell it carried over without
// evaluating. do runs on the goroutine that picked the cell, before any
// dependent cell starts, so it may publish into state those cells read
// (the sweep grows its dirty set there; see eco.go).
func (e *Engine) runPhase(phase string, do func(cell *netlist.Cell) (bool, error)) (int64, error) {
	t0 := time.Now()
	defer func() {
		e.m.phaseDur.With(e.modeLabel(), phase).Observe(time.Since(t0).Seconds())
	}()
	g := e.dfClock
	if phase == phaseMain {
		g = e.dfMain
	}
	return e.runDataflow(phase, g, e.opts.Workers, do)
}

// runDataflow drains one phase graph through a bounded worker pool.
// Each worker keeps a small LIFO stack of ready cells and spills to a
// shared queue when the stack fills or other workers are starved; a
// failing cell raises a stop flag that parks the whole pool. Each
// worker tallies its evaluated cells locally; the total is summed once,
// at the phase barrier.
func (e *Engine) runDataflow(phase string, g *dfGraph, workers int,
	do func(cell *netlist.Cell) (bool, error)) (int64, error) {

	n := len(g.cells)
	if n == 0 {
		return 0, nil
	}
	span := e.trace.Begin("wavefront", 0).Arg("phase", phase).Arg("cells", n)
	if workers <= 1 || n < 2*workers {
		// The graph's cells are stored in level order — a valid
		// topological order — so the sequential path needs no counters.
		e.m.seqCells.Add(int64(n))
		var evaluated int64
		for _, cid := range g.cells {
			ran, err := do(e.C.Cell(cid))
			if err != nil {
				span.Arg("error", true).End()
				return 0, err
			}
			if ran {
				evaluated++
			}
		}
		span.End()
		return evaluated, nil
	}

	deps := make([]int32, n)
	copy(deps, g.indeg)
	var (
		mu        sync.Mutex
		shared    []int32
		waiters   atomic.Int32
		completed atomic.Int64
		evaluated atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	// finish parks the pool: stop is set under the mutex so a worker
	// cannot check it, miss the Broadcast, and then sleep forever.
	finish := func() {
		mu.Lock()
		stop.Store(true)
		cond.Broadcast()
		mu.Unlock()
	}
	errs := make([]error, workers)
	const localCap = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wspan := e.trace.Begin("worker", w+1).Arg("phase", phase)
			cells, evals, steals := 0, int64(0), int64(0)
			defer func() {
				evaluated.Add(evals)
				e.m.workerCells.Add(int64(cells))
				e.m.schedSteals.Add(steals)
				wspan.Arg("cells", cells).End()
			}()
			var local []int32
			// share moves a ready node to the shared queue (stack full,
			// or another worker is parked waiting for work).
			share := func(node int32) {
				mu.Lock()
				shared = append(shared, node)
				e.m.schedReadyDepth.Observe(float64(len(shared)))
				mu.Unlock()
				cond.Signal()
			}
			for i := w; i < len(g.roots); i += workers {
				local = append(local, g.roots[i])
			}
			for {
				if stop.Load() {
					return
				}
				var node int32
				if len(local) > 0 {
					node = local[len(local)-1]
					local = local[:len(local)-1]
				} else {
					mu.Lock()
					for len(shared) == 0 && !stop.Load() {
						waiters.Add(1)
						cond.Wait()
						waiters.Add(-1)
					}
					if stop.Load() || len(shared) == 0 {
						mu.Unlock()
						return
					}
					node = shared[len(shared)-1]
					shared = shared[:len(shared)-1]
					mu.Unlock()
					steals++
				}
				ran, err := do(e.C.Cell(g.cells[node]))
				if err != nil {
					errs[w] = err
					finish()
					return
				}
				if ran {
					evals++
				}
				cells++
				// Release successors; keep the first ready one local
				// (depth-first keeps caches warm), share the rest when
				// someone is starved or the stack is full.
				kept := false
				for j := g.succOff[node]; j < g.succOff[node+1]; j++ {
					s := g.succ[j]
					if atomic.AddInt32(&deps[s], -1) != 0 {
						continue
					}
					if !kept && len(local) < localCap && waiters.Load() == 0 {
						local = append(local, s)
						kept = true
					} else {
						share(s)
					}
				}
				if completed.Add(1) == int64(n) {
					finish()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			span.Arg("error", true).End()
			return 0, err
		}
	}
	span.End()
	return evaluated.Load(), nil
}
