package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"xtalksta/internal/netlist"
)

// Incremental (ECO) re-analysis.
//
// A full analysis stores its per-pass net states (ReplayState); a
// seeded re-run then recomputes only the dirty set — the nets whose
// electrical parameters an edit batch changed (the seeds), grown only
// by divergence: a recomputed net whose state differs from the stored
// pass dirties the lines that read it,
//
//   - structurally: the cells it feeds and, through launch seeding, the
//     flip-flops it clocks, in the same pass;
//   - by coupling: in the first (one-step) pass a victim reads the
//     current-pass quiescent times of lower-rank neighbors, so a
//     diverged aggressor dirties every higher-rank victim; in
//     refinement passes every neighbor's previous-pass quiescent time
//     is read, so a net that diverged in pass k dirties all its
//     coupled victims in pass k+1 regardless of rank.
//
// Clean nets are seeded from the stored pass states, which makes the
// merged result bit-identical to a from-scratch run: the expansion rule
// above covers exactly the reads evalArc/processCell perform, so any
// net left clean would have recomputed to its stored value anyway.

// ReplayState is the stored trajectory of one analysis: the per-pass
// net states and the best-case arc cache. It is immutable once attached
// to a Result.
type ReplayState struct {
	mode Mode
	opts Options
	nets int
	// passes holds the net-state slice each BFS sweep produced; nothing
	// writes a pass's slice after its sweep ends. final indexes the
	// reported pass (the lowest Iterative pass, see runPasses).
	passes [][]netState
	final  int
	// bcs is the run's cross-pass best-case arc slab as the run left it,
	// reusable across revisions for electrically unchanged nets.
	bcs []bcsEntry
	rev uint64
}

// Mode returns the analysis mode the state was captured under.
func (rs *ReplayState) Mode() Mode { return rs.mode }

// Options returns the options of the captured run. The edits of later
// revisions are in their circuits, not in the options, so Reanalyze
// runs under these as they are.
func (rs *ReplayState) Options() Options { return rs.opts }

// Revision identifies the design revision the state was computed at
// (stamped by the API layer; 0 for standalone engine runs).
func (rs *ReplayState) Revision() uint64 { return rs.rev }

// SetRevision stamps the design revision (API layer bookkeeping).
func (rs *ReplayState) SetRevision(rev uint64) { rs.rev = rev }

// Nets returns the net count of the captured circuit.
func (rs *ReplayState) Nets() int { return rs.nets }

// Passes returns the number of stored BFS sweeps.
func (rs *ReplayState) Passes() int { return len(rs.passes) }

// FinalArrivals returns a copy of the reported pass's 50% arrival times
// per (net, dir) — the exactness witnesses the property tests compare.
func (rs *ReplayState) FinalArrivals() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.arrival })
}

// FinalSlews returns a copy of the reported pass's slews per (net, dir).
func (rs *ReplayState) FinalSlews() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.slew })
}

// FinalQuiets returns a copy of the reported pass's quiescent times per
// (net, dir).
func (rs *ReplayState) FinalQuiets() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.quiet })
}

func (rs *ReplayState) finalField(get func(*netState) [2]float64) [][2]float64 {
	if len(rs.passes) == 0 {
		return nil
	}
	final := rs.passes[rs.final]
	out := make([][2]float64, len(final))
	for i := range final {
		out[i] = get(&final[i])
	}
	return out
}

// takeReplay moves the capture buffers and the best-case slab into a
// ReplayState, so the next run on the session starts a fresh slab.
// Returns nil when capture was disabled or nothing was captured.
func (e *Engine) takeReplay() *ReplayState {
	if e.opts.DisableReplay || len(e.replayPasses) == 0 {
		return nil
	}
	rs := &ReplayState{
		mode:   e.opts.Mode,
		opts:   e.opts,
		nets:   len(e.C.Nets),
		passes: e.replayPasses,
		final:  e.finalPass,
		bcs:    e.bcs,
	}
	e.replayPasses, e.bcs = nil, nil
	return rs
}

// ECOStats is the work breakdown of one seeded re-analysis.
type ECOStats struct {
	// DirtyLines counts driven lines re-evaluated across all passes;
	// ReusedLines counts the lines seeded from the stored passes.
	DirtyLines, ReusedLines int64
	// ConeExpansions counts dirty-set growth beyond the initial seeds:
	// the fanout, clocked flip-flops and coupling victims of lines
	// whose state diverged.
	ConeExpansions int64
	// FullFallback reports that the run could not be seeded (a topology
	// where seeding is unsound, see seedableTopology) and ran from
	// scratch instead.
	FullFallback bool
}

// seedBCS warms the cross-pass best-case arc cache from a previous
// revision's replay: one copy of its slab into the session's own, then
// the seeded nets' spans cleared, as their electrical parameters
// changed and their cached results would be stale. The cache is keyed
// on the exact input slew, so a stale-slew entry is never consulted.
func (e *Engine) seedBCS(prev *ReplayState, seed []bool) {
	if len(prev.bcs) != e.arcs() {
		return // another circuit's slab
	}
	e.bcs = append(e.bcs[:0], prev.bcs...)
	for i, s := range seed {
		if s {
			clear(e.bcs[e.arcOff[i]:e.arcOff[i+1]])
		}
	}
}

// seedableTopology reports whether replay seeding preserves the full
// sweep's phase-visibility semantics. Clock-phase cells and DFF clock
// pins run before the main phase and therefore see main-phase nets as
// uncalculated; a seeded run presents end-of-pass state instead, so any
// clock-phase read of a non-clock, non-PI net forces a full fallback.
func (e *Engine) seedableTopology() bool {
	visible := func(id netlist.NetID) bool {
		n := e.C.Net(id)
		return n.IsPI || n.IsClock
	}
	for _, cid := range e.clockLv.cells {
		for _, in := range e.C.Cell(cid).In {
			if !visible(in) {
				return false
			}
		}
	}
	for _, cell := range e.C.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet && !visible(cell.Clock) {
			return false
		}
	}
	return true
}

// RunSeeded executes the configured analysis reusing a previous
// revision's ReplayState. seed flags (by NetID−1) the nets whose
// electrical parameters changed since that revision: edited coupling
// pairs (both sides), resized cells' output and input nets, and edited
// primary inputs. The session's best-case arc cache is warmed from
// prev's on every other net. The result is bit-identical to Run on the
// edited circuit; only the work differs (see Result.ECO).
func (e *Engine) RunSeeded(prev *ReplayState, seed []bool) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: RunSeeded: nil replay state")
	}
	if prev.nets != len(e.C.Nets) {
		return nil, fmt.Errorf("core: RunSeeded: replay has %d nets, circuit has %d (structural edits need a full run)", prev.nets, len(e.C.Nets))
	}
	if prev.mode != e.opts.Mode {
		return nil, fmt.Errorf("core: RunSeeded: replay was captured in %s mode, engine runs %s", prev.mode, e.opts.Mode)
	}
	if len(seed) != len(e.C.Nets) {
		return nil, fmt.Errorf("core: RunSeeded: seed mask has %d entries, want %d", len(seed), len(e.C.Nets))
	}
	e.seedBCS(prev, seed)
	res, _, err := e.run(prev, seed)
	return res, err
}

// dirtySet is one sweep's recompute set. Lines outside it carry the
// state of orig (nil: the sweep recomputes every line and carries
// nothing). changed marks the recomputed lines whose state diverged
// from orig; a divergence grows the set through expand. dirty is grown
// concurrently (each cell's sweep callback expands from its own
// diverged output, possibly on a worker goroutine), so its bits are
// atomic; every expansion provably targets a cell that has not started
// yet — fanout sinks and pass-1 coupling victims have strictly higher
// rank, so the mark lands before the executor reads the target's bucket
// (see levels.go). changed is written by at most one goroutine per
// index (the cell owner) and only read after that write.
type dirtySet struct {
	orig    []netState
	dirty   []atomic.Bool
	changed []bool
	// pass1 enables the one-step victim rule: a diverged net's
	// higher-rank coupled victims read its current-pass quiescent time
	// and must re-classify.
	pass1      bool
	expansions atomic.Int64
	// tally is the sweep's work, summed at its phase barriers.
	tally tally
	// Line tallies of the finished sweep, taken at the pass barrier:
	// lines recomputed (flip-flop launches included) and carried.
	recomputed, carried int64
}

// newEcoPass builds the recompute set of seeded pass passIdx: the edit
// seeds against the stored pass of the same index (every line once the
// seeded run outlives the stored trajectory, which remains exact).
func (e *Engine) newEcoPass(prev *ReplayState, passIdx int, seed []bool) *dirtySet {
	mode := e.opts.Mode
	ds := e.newFullPass()
	ds.pass1 = passIdx == 0 && (mode == OneStep || mode == Iterative)
	if passIdx < len(prev.passes) {
		ds.carry(prev.passes[passIdx], seed)
	}
	return ds
}

// carry makes the set carry orig's state on every line mask leaves
// clean.
func (ds *dirtySet) carry(orig []netState, mask []bool) {
	ds.orig = orig
	for i, m := range mask {
		if m {
			ds.dirty[i].Store(true)
		}
	}
}

// newDeltaPass builds the carrying set of an in-run Iterative
// refinement pass: the engine's own previous pass plays the role of the
// stored trajectory. The caller seeds the lines whose reads can differ
// from that pass (seedPass2, seedFlips); the sweep grows the set by the
// fanout of anything that diverges.
func (e *Engine) newDeltaPass(prevSt []netState) *dirtySet {
	ds := e.newFullPass()
	ds.carry(prevSt, nil)
	return ds
}

// tbcsInterval is the t_bcs interval [lo, hi] one coupling
// classification of an arc used: [t_bcs, t_bcs] on the exact path, the
// tier-0 bracket when elision proved the decisions. Every neighbor
// quiescent time the classification read lay above hi (coupled) or at
// or below lo (grounded). An arc never classified holds the empty
// interval (+Inf, −Inf).
type tbcsInterval struct{ lo, hi float64 }

// canFlip reports whether a neighbor quiescent time that moved from old
// to now can change a decision made over iv: unless both lie above hi,
// or both at or below lo. The empty interval never flips.
func (iv tbcsInterval) canFlip(old, now float64) bool {
	return !(old > iv.hi && now > iv.hi) && !(old <= iv.lo && now <= iv.lo)
}

// resetIntervals starts a run's t_bcs intervals: every arc empty when
// keep is set (a full Iterative run), none kept otherwise.
func (e *Engine) resetIntervals(keep bool) {
	if !keep {
		e.tbcsIv = nil
		return
	}
	if len(e.tbcsIv) != e.arcs() {
		e.tbcsIv = make([]tbcsInterval, e.arcs())
	}
	for i := range e.tbcsIv {
		e.tbcsIv[i] = tbcsInterval{lo: math.Inf(1), hi: math.Inf(-1)}
	}
}

// noteInterval records the t_bcs interval the classification of an arc
// used, when the run keeps them.
func (e *Engine) noteInterval(out netlist.NetID, pin, dOut int, lo, hi float64) {
	if e.tbcsIv != nil {
		e.tbcsIv[e.arcSlot(out, pin, dOut)] = tbcsInterval{lo, hi}
	}
}

// flips reports whether a neighbor quiescent time in direction d that
// moved from old to now can flip a coupling decision of victim: an arc
// of victim that switches the other way has an interval the two do not
// lie on one side of.
func (e *Engine) flips(victim netlist.NetID, d int, old, now float64) bool {
	for s := e.arcOff[victim-1] + int32(1-d); s < e.arcOff[victim]; s += 2 {
		if e.tbcsIv[s].canFlip(old, now) {
			return true
		}
	}
	return false
}

// seedPass2 seeds refinement pass 2, the first to classify against the
// stored quiescent times of pass 1 (st). A neighbor the one-step rule
// counted as calculated (strictly lower rank) was read at its final
// pass-1 time, which pass 2 reads again. One it did not coupled
// whatever its time, as if that time were +Inf; the line is seeded when
// its pass-1 time can flip that decision, i.e. is not above the hi of
// every arc that switches the other way.
func (e *Engine) seedPass2(ds *dirtySet, st []netState) {
	for i := range st {
		victim := netlist.NetID(i + 1)
		first, end := e.cc.Span(victim)
	nbrs:
		for k := first; k < end; k++ {
			other := e.cc.Nbr[k]
			if e.netCalculatedAt(other, e.netRank[victim]) {
				continue
			}
			for d := 0; d < 2; d++ {
				if e.flips(victim, d, math.Inf(1), st[other-1].quiet[d]) {
					ds.mark(victim)
					break nbrs
				}
			}
		}
	}
}

// seedFlips seeds refinement pass k+1 (k ≥ 2): a line whose inputs did
// not diverge reads its neighbors only through its coupling
// comparisons, so of the coupled victims of a net whose quiescent time
// in direction d moved from old (pass k−1, what pass k read) to st's
// (pass k), only those whose decisions the move can flip recompute.
// changed marks the nets that diverged in pass k. A dominance-skipped
// arc keeps a stale interval, but it stays dominated while its inputs
// are unchanged.
func (e *Engine) seedFlips(ds *dirtySet, old [][2]float64, st []netState, changed []bool) {
	for i, ch := range changed {
		if !ch {
			continue
		}
		first, end := e.cc.Span(netlist.NetID(i + 1))
		for d := 0; d < 2; d++ {
			was, now := old[i][d], st[i].quiet[d]
			if was == now {
				continue
			}
			for k := first; k < end; k++ {
				if victim := e.cc.Nbr[k]; e.flips(victim, d, was, now) {
					ds.mark(victim)
				}
			}
		}
	}
}

// mark adds a net to the dirty set, counting growth beyond the seeds.
// Safe from any goroutine; first marker wins the count.
func (ds *dirtySet) mark(id netlist.NetID) {
	if ds.dirty[id-1].Swap(true) {
		return
	}
	ds.expansions.Add(1)
}

// expand grows the dirty set from a net whose recomputed state
// diverged: the lines it feeds and — in the first pass — its
// higher-rank coupled victims (which read its current-pass quiescent
// time through the one-step rule).
func (e *Engine) expand(ds *dirtySet, net netlist.NetID) {
	e.forFanout(net, ds.mark)
	if ds.pass1 {
		lo, hi := e.cc.Span(net)
		for k := lo; k < hi; k++ {
			if other := e.cc.Nbr[k]; e.netRank[other] > e.netRank[net] {
				ds.mark(other)
			}
		}
	}
}

// seedRefinementDirty initializes a seeded refinement pass's dirty set
// beyond the edit seeds: every coupled victim of a net that diverged in
// the previous pass re-reads its quiescent time through quietPrev (any
// rank).
func (e *Engine) seedRefinementDirty(ds *dirtySet, prevChanged []bool) {
	if ds.orig == nil {
		return // already fully dirty
	}
	for i, ch := range prevChanged {
		if ch {
			lo, hi := e.cc.Span(netlist.NetID(i + 1))
			for k := lo; k < hi; k++ {
				ds.mark(e.cc.Nbr[k])
			}
		}
	}
}

// sameNetState compares the observable per-pass state (pred excluded:
// it is derived deterministically from the same inputs, so equal values
// imply an equal-arrival predecessor choice either way).
func sameNetState(a, b *netState) bool {
	return a.arrival == b.arrival && a.slew == b.slew && a.quiet == b.quiet &&
		a.calculated == b.calculated
}

func freshNetState() netState {
	return netState{
		arrival: [2]float64{math.Inf(-1), math.Inf(-1)},
		quiet:   [2]float64{math.Inf(-1), math.Inf(-1)},
	}
}
