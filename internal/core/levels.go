package core

import (
	"xtalksta/internal/netlist"
)

// Topological levels and net ranks.
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
// permits). Beyond the ranks, levels only fix each phase's node order
// (level-major, a valid topological order; see dataflow.go).

// buildLevels computes the per-net ranks for the calculated-neighbor
// test and returns each phase's cells in level order.
func (e *Compiled) buildLevels() (clockOrder, mainOrder []netlist.CellID) {
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
	maxClock := 0
	var clockCells, mainCells []netlist.CellID
	for _, cid := range e.order {
		if c.Net(c.Cell(cid).Out).IsClock {
			clockCells = append(clockCells, cid)
		} else {
			mainCells = append(mainCells, cid)
		}
	}
	clockLevel := make(map[netlist.CellID]int, len(clockCells))
	for _, cid := range clockCells {
		cell := c.Cell(cid)
		lv := levelOfCell(cell)
		clockLevel[cid] = lv
		rank[cell.Out] = lv
		if lv > maxClock {
			maxClock = lv
		}
	}
	seedRank := maxClock + 1
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF {
			rank[cell.Out] = seedRank
		}
	}
	mainLevel := make(map[netlist.CellID]int, len(mainCells))
	for _, cid := range mainCells {
		cell := c.Cell(cid)
		lv := levelOfCell(cell)
		if lv <= seedRank {
			lv = seedRank + 1
		}
		mainLevel[cid] = lv
		rank[cell.Out] = lv
	}
	// byLevel orders cells level-major, keeping topological order within
	// a level.
	byLevel := func(cells []netlist.CellID, level map[netlist.CellID]int) []netlist.CellID {
		maxLv := 0
		for _, cid := range cells {
			if level[cid] > maxLv {
				maxLv = level[cid]
			}
		}
		buckets := make([][]netlist.CellID, maxLv+1)
		for _, cid := range cells {
			buckets[level[cid]] = append(buckets[level[cid]], cid)
		}
		out := make([]netlist.CellID, 0, len(cells))
		for _, b := range buckets {
			out = append(out, b...)
		}
		return out
	}
	e.netRank = rank
	return byLevel(clockCells, clockLevel), byLevel(mainCells, mainLevel)
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
