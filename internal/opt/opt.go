// Package opt is a small timing-driven gate-sizing optimizer on top of
// the crosstalk-aware analyses — the kind of engine-consumer the
// paper's reference [5] (a flat, timing-driven layout system)
// represents. It repeatedly runs an analysis, finds the worst slack
// path, and upsizes the slowest drivers on it until the clock period is
// met or limits are reached.
//
// Upsizing a cell lowers its drive resistance (faster output
// transitions) but raises its input capacitance (loading the upstream
// stage), so the optimizer re-analyzes after every move instead of
// assuming monotone improvement.
package opt

import (
	"fmt"
	"sort"

	"xtalksta/internal/core"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/incremental"
	"xtalksta/internal/netlist"
)

// Config tunes the optimizer.
type Config struct {
	// MaxIterations bounds the analyze→upsize loop (default 12).
	MaxIterations int
	// UpsizeFactor multiplies a chosen cell's drive per move (default 1.6).
	UpsizeFactor float64
	// MaxSize caps any cell's total multiplier (default 8).
	MaxSize float64
	// CellsPerIteration is how many of the path's slowest drivers are
	// upsized per round (default 3).
	CellsPerIteration int
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 12
	}
	if c.UpsizeFactor == 0 {
		c.UpsizeFactor = 1.6
	}
	if c.MaxSize == 0 {
		c.MaxSize = 8
	}
	if c.CellsPerIteration == 0 {
		c.CellsPerIteration = 3
	}
	return c
}

// Move records one sizing decision.
type Move struct {
	Cell    string
	NewSize float64
}

// Result reports an optimization run.
type Result struct {
	// Met reports whether the period is met at the end.
	Met bool
	// Before and After are the longest-path delays.
	Before, After float64
	// Sizes is the final per-cell multiplier map (cells at 1 omitted),
	// sizes the circuit carried before the run included.
	Sizes map[netlist.CellID]float64
	// Moves lists the decisions in order.
	Moves []Move
	// Iterations used.
	Iterations int
}

// FixTiming sizes gates until the longest path (plus flip-flop setup)
// fits the clock period under the given analysis mode. It starts from
// the sizes c carries and applies its moves to copies of c
// (incremental.Apply); c itself is never written.
func FixTiming(c *netlist.Circuit, calc delaycalc.InfoEvaluator, analysis core.Options,
	period float64, cfg Config) (*Result, error) {

	if period <= 0 {
		return nil, fmt.Errorf("opt: period must be positive, got %g", period)
	}
	cfg = cfg.withDefaults()
	sizes := make(map[netlist.CellID]float64)
	cellByName := make(map[string]netlist.CellID, len(c.Cells))
	for _, cell := range c.Cells {
		cellByName[cell.Name] = cell.ID
		if cell.Size != 0 && cell.Size != 1 {
			sizes[cell.ID] = cell.Size
		}
	}

	run := func() (*core.Result, *core.TimingReport, error) {
		eng, err := core.NewEngine(c, calc, analysis)
		if err != nil {
			return nil, nil, err
		}
		return eng.RunReport(period)
	}

	res, rep, err := run()
	if err != nil {
		return nil, err
	}
	out := &Result{Before: res.LongestPath, Sizes: sizes}
	// Track the best configuration seen: greedy upsizing can regress
	// (bigger gates load their drivers), and the caller should get the
	// best point, not the last one.
	bestDelay := res.LongestPath
	bestSizes := cloneSizes(sizes)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		out.Iterations = iter
		out.After = res.LongestPath
		if rep.WNS() >= 0 {
			out.Met = true
			return out, nil
		}
		// Slowest arcs on the critical path: per step, the delay it
		// contributed is the arrival difference to its predecessor.
		type cand struct {
			cell  netlist.CellID
			delay float64
		}
		var cands []cand
		for i := 1; i < len(res.Path); i++ {
			step := res.Path[i]
			if step.Cell == "" {
				continue
			}
			cid, ok := cellByName[step.Cell]
			if !ok {
				continue
			}
			if cur := sizes[cid]; cur >= cfg.MaxSize {
				continue
			}
			cands = append(cands, cand{cid, step.Arrival - res.Path[i-1].Arrival})
		}
		if len(cands) == 0 {
			// Everything on the path is maxed out: give up.
			out.After = res.LongestPath
			return out, nil
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].delay > cands[j].delay })
		n := cfg.CellsPerIteration
		if n > len(cands) {
			n = len(cands)
		}
		edits := make([]incremental.Edit, n)
		for i, cd := range cands[:n] {
			cur := sizes[cd.cell]
			if cur == 0 {
				cur = 1
			}
			next := cur * cfg.UpsizeFactor
			if next > cfg.MaxSize {
				next = cfg.MaxSize
			}
			sizes[cd.cell] = next
			name := c.Cell(cd.cell).Name
			edits[i] = incremental.Edit{Op: incremental.OpResizeCell, Cell: name, Value: next}
			out.Moves = append(out.Moves, Move{Cell: name, NewSize: next})
		}
		if c, _, err = incremental.Apply(c, edits, nil, nil); err != nil {
			return nil, err
		}
		res, rep, err = run()
		if err != nil {
			return nil, err
		}
		if res.LongestPath < bestDelay {
			bestDelay = res.LongestPath
			bestSizes = cloneSizes(sizes)
		}
	}
	out.Iterations = cfg.MaxIterations
	if rep.WNS() >= 0 {
		out.Met = true
		out.After = res.LongestPath
		return out, nil
	}
	// Target missed: hand back the best configuration encountered.
	out.After = bestDelay
	out.Sizes = bestSizes
	return out, nil
}

func cloneSizes(m map[netlist.CellID]float64) map[netlist.CellID]float64 {
	out := make(map[netlist.CellID]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
