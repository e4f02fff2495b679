package core

import (
	"sync"
	"sync/atomic"
	"time"

	"xtalksta/internal/netlist"
)

// Topological levels, net ranks and the levelized executor.
//
// Cells are grouped into topological levels (separately for the clock
// tree and the main combinational phase); within a level no cell feeds
// another. The one-step rule's "is the neighbor calculated yet" test is
// defined in terms of these levels — a neighbor is calculated when its
// driver's rank is strictly lower — rather than sequential processing
// order. That definition makes the one-step analysis independent of
// cell enumeration order — the same result sequentially and with any
// worker count — at the price of being infinitesimally more
// conservative than a fixed sequential order within a level
// (same-level neighbors are worst-cased, which the paper's rule
// permits).
//
// The executor runs each phase one rank bucket at a time. A cell reads
// only nets of strictly lower rank: its fanin (a cell's rank is one
// more than its highest input's) and, in a first pass, the coupled
// neighbors netCalculatedAt counts as calculated; refinement passes
// read the frozen quietPrev. So no cell reads another cell of its own
// bucket, and the barrier between buckets orders every read after the
// write it reads. Every dirty mark a cell makes targets a strictly
// higher rank (fanout sinks, pass-1 coupling victims) or crosses the
// phase boundary (clock net to flip-flop launch), so a bucket's dirty
// set is final when the bucket starts.

// Phase labels of the sweep's trace spans.
const (
	phaseClock = "clock"
	phaseMain  = "main"
)

// levels is one phase's cells in rank order, split into buckets of one
// rank each: bucket b is cells[off[b]:off[b+1]], and the buckets ascend
// by rank. Within a bucket the cells keep their topological order.
type levels struct {
	cells []netlist.CellID
	off   []int32
}

// buildLevels computes the per-net ranks for the calculated-neighbor
// test and each phase's rank buckets.
func (e *Compiled) buildLevels() {
	c := e.C
	// Net rank: seeds (PIs) are 0; a driven net is 1 + max rank of the
	// driving cell's inputs. Clock phase first, then DFF Q seeds, then
	// the main phase, with rank bands that keep the phases ordered.
	rank := make([]int, len(c.Nets)+1)
	for i := range rank {
		rank[i] = -1
	}
	for _, pi := range c.PIs {
		rank[pi] = 0
	}
	levelOfCell := func(cell *netlist.Cell) int {
		lv := 0
		for _, in := range cell.In {
			if r := rank[in]; r+1 > lv {
				lv = r + 1
			}
		}
		return lv
	}
	var clockCells, mainCells []netlist.CellID
	for _, cid := range e.order {
		if c.Net(c.Cell(cid).Out).IsClock {
			clockCells = append(clockCells, cid)
		} else {
			mainCells = append(mainCells, cid)
		}
	}
	level := make([]int, len(c.Cells)) // by CellID
	maxClock := 0
	for _, cid := range clockCells {
		cell := c.Cell(cid)
		lv := levelOfCell(cell)
		level[cid] = lv
		rank[cell.Out] = lv
		maxClock = max(maxClock, lv)
	}
	seedRank := maxClock + 1
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF {
			rank[cell.Out] = seedRank
		}
	}
	for _, cid := range mainCells {
		cell := c.Cell(cid)
		lv := max(levelOfCell(cell), seedRank+1)
		level[cid] = lv
		rank[cell.Out] = lv
	}
	e.netRank = rank
	e.clockLv = bucketize(clockCells, level)
	e.mainLv = bucketize(mainCells, level)
}

// bucketize counting-sorts cells by level, keeping their order within a
// level, and records one bucket per non-empty level.
func bucketize(cells []netlist.CellID, level []int) levels {
	maxLv := 0
	for _, cid := range cells {
		maxLv = max(maxLv, level[cid])
	}
	start := make([]int32, maxLv+2)
	for _, cid := range cells {
		start[level[cid]+1]++
	}
	lv := levels{cells: make([]netlist.CellID, len(cells)), off: []int32{0}}
	for l := 1; l < len(start); l++ {
		if start[l] > 0 {
			lv.off = append(lv.off, start[l-1]+start[l])
		}
		start[l] += start[l-1]
	}
	for _, cid := range cells {
		lv.cells[start[level[cid]]] = cid
		start[level[cid]]++
	}
	return lv
}

// netCalculatedAt reports whether, while processing a cell whose output
// has the given rank, the neighbor net counts as already calculated.
func (e *Compiled) netCalculatedAt(neighbor netlist.NetID, outRank int) bool {
	r := e.netRank[neighbor]
	if r < 0 {
		return false // unreachable net: never calculated
	}
	return r < outRank
}

// runPhase runs one sweep phase bucket by bucket and sums the work its
// cells tallied into total. A bucket runs every cell when ds is nil or
// carries nothing (a full pass), and otherwise the cells whose output
// ds marks dirty, read when the bucket starts. do runs on the goroutine
// that picked the cell; it may mark higher-rank lines dirty (the sweep
// grows its dirty set there; see eco.go) and tallies its work into the
// tally it is handed, which only that goroutine writes. A failing cell
// stops the phase: no later bucket starts, and its error is returned.
func (e *Engine) runPhase(phase string, ds *dirtySet, total *tally, do func(*netlist.Cell, *tally) error) error {
	t0 := time.Now()
	lv := &e.clockLv
	if phase == phaseMain {
		lv = &e.mainLv
	}
	span := e.trace.Begin("wavefront", 0).Arg("phase", phase)
	workers := max(e.opts.Workers, 1)
	var picked []netlist.CellID
	var seq, par int64
	var err error
	for b := 0; b+1 < len(lv.off) && err == nil; b++ {
		run := lv.cells[lv.off[b]:lv.off[b+1]]
		if ds != nil && ds.orig != nil {
			picked = picked[:0]
			for _, cid := range run {
				if ds.dirty[e.C.Cell(cid).Out-1].Load() {
					picked = append(picked, cid)
				}
			}
			run = picked
		}
		if workers > 1 && len(run) >= 2*workers {
			par += int64(len(run))
			err = e.runBucket(run, workers, total, do)
			continue
		}
		seq += int64(len(run))
		for _, cid := range run {
			if err = do(e.C.Cell(cid), total); err != nil {
				break
			}
		}
	}
	e.m.seqCells.Add(seq)
	e.m.workerCells.Add(par)
	span.Arg("cells", seq+par)
	if err != nil {
		span.Arg("error", true)
	}
	span.End()
	e.m.phaseDur.With(e.modeLabel(), phase).Observe(time.Since(t0).Seconds())
	return err
}

// runBucket runs one bucket's cells on workers goroutines, the caller
// included, each taking chunks from a shared cursor into its own tally;
// the tallies are summed into total at the barrier. After a cell fails
// no goroutine takes another chunk.
func (e *Engine) runBucket(cells []netlist.CellID, workers int, total *tally, do func(*netlist.Cell, *tally) error) error {
	chunk := 1 + len(cells)/(32*workers)
	var (
		next  atomic.Int64
		stop  atomic.Bool
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	work := func() {
		var w tally
		var err error
		for !stop.Load() && err == nil {
			hi := int(next.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= len(cells) {
				break
			}
			for _, cid := range cells[lo:min(hi, len(cells))] {
				if err = do(e.C.Cell(cid), &w); err != nil {
					stop.Store(true)
					break
				}
			}
		}
		mu.Lock()
		total.add(&w)
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}
