// Package layout stands in for the routed 0.5 µm two-metal layouts of
// the paper's evaluation. It places the cells of a circuit on a row
// grid, routes every net with a trunk-and-branch pattern on a uniform
// track grid (horizontal trunks on metal-1, vertical branches on
// metal-2), and extracts per-net parasitics: grounded wire capacitance,
// wire resistance, an Elmore RC tree per net, and — the part the
// paper's algorithms feed on — coupling capacitances to the specific
// nets occupying neighboring tracks.
//
// Memory model (DESIGN.md §15): everything keyed by a cell or net is an
// index-addressed slice over the dense int32 ids, not a hash map, and
// the per-net RC trees live in one flattened node arena with int32
// parent links. A million-cell design's layout is a handful of large
// contiguous allocations instead of millions of small ones.
package layout

import (
	"fmt"
	"math"
	"sort"

	"xtalksta/internal/device"
	"xtalksta/internal/elmore"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// Options carries the layout's telemetry sinks.
type Options struct {
	// Metrics, when non-nil, receives layout counters (nets routed,
	// coupling pairs extracted, total wirelength).
	Metrics *obs.Registry
	// Trace, when non-nil, receives place/route/extract spans.
	Trace *obs.Tracer
	// maxTrackSearch overrides the legalizer's search bound (in-package
	// tests only; 0 selects the maxTrackSearch constant).
	maxTrackSearch int
}

// Placement and routing geometry. All lengths are in meters.
const (
	// rowHeight is the placement row pitch.
	rowHeight = 12e-6
	// baseCellWidth and widthPerPin size cells.
	baseCellWidth = 4e-6
	widthPerPin   = 1e-6
	// trackPitch is the routing track pitch on both layers: minimum
	// pitch, where the sidewall coupling constant of the process applies.
	trackPitch = 1.5e-6
	// maxTrackSearch bounds how far the legalizer may displace a segment
	// from its preferred track (12 tracks = 18 µm). Larger displacements
	// would distort wirelength badly; under congestion the router
	// instead stacks on the preferred track, standing in for the extra
	// layers a real router has.
	maxTrackSearch = 12
	// minCouplingOverlap drops coupling caps from overlaps shorter than
	// this, mirroring extraction thresholds in real flows.
	minCouplingOverlap = 2e-6
)

func (o Options) withDefaults() Options {
	if o.maxTrackSearch == 0 {
		o.maxTrackSearch = maxTrackSearch
	}
	return o
}

// Point is a 2-D location in meters.
type Point struct{ X, Y float64 }

// seg is the internal routed-segment representation: a track index and
// an extent [lo, hi] along the track direction.
type seg struct {
	net    netlist.NetID
	track  int
	lo, hi float64
}

// Layout is the placed-and-routed design. All position tables are
// dense, index-addressed slices (by CellID, or by NetID-1) rather than
// hash maps; input-pin positions form a per-cell CSR.
type Layout struct {
	Opts    Options
	Circuit *netlist.Circuit

	CellPos []Point // by CellID: lower-left cell origin
	OutPos  []Point // by CellID: output pin position
	// pinOff/pinPos are the CSR of input-pin positions: the pins of
	// cell id occupy pinPos[pinOff[id]:pinOff[id+1]] in pin order.
	pinOff []int32
	pinPos []Point
	POPos  []Point // by NetID-1; meaningful only when the net is a PO
	PIPos  []Point // by NetID-1; meaningful only when the net is a PI

	hsegs []seg // horizontal (metal-1): track = y index, extent = x
	vsegs []seg // vertical (metal-2): track = x index, extent = y

	// clockSinkOff/clockSinkCells are the CSR mapping a clock net to
	// the DFFs it clocks (span [off[id-1], off[id]) of the cell array).
	clockSinkOff   []int32
	clockSinkCells []netlist.CellID

	// TrunkFallbacks counts trunks the legalizer had to stack on an
	// occupied track under congestion (a stand-in for extra layers).
	TrunkFallbacks int

	// trees holds the per-net Elmore RC tree and sink mapping, by
	// NetID-1. Tree node storage lives in one flattened elmore.Arena;
	// the sink ref/node pairs share two slabs carved per net.
	trees []NetTree

	// DieW, DieH are the die dimensions.
	DieW, DieH float64
}

// NetTree pairs a net's RC tree with its sink mapping. SinkRefs and
// SinkNodes are parallel: the pin SinkRefs[i] taps the tree at node
// SinkNodes[i].
type NetTree struct {
	Tree      elmore.Tree
	SinkRefs  []netlist.PinRef
	SinkNodes []int32
	PONode    int32 // -1 when the net is not a PO
	WireLen   float64
}

// SinkNodeOf returns the tree node of one sink pin (linear scan — nets
// have small fanout).
func (nt *NetTree) SinkNodeOf(pr netlist.PinRef) (int, bool) {
	for i, r := range nt.SinkRefs {
		if r == pr {
			return int(nt.SinkNodes[i]), true
		}
	}
	return 0, false
}

// Tree returns the routed NetTree of a net, or nil for an id out of
// range.
func (l *Layout) Tree(id netlist.NetID) *NetTree {
	if id <= 0 || int(id) > len(l.trees) {
		return nil
	}
	return &l.trees[id-1]
}

// PinAt returns the position of an input pin.
func (l *Layout) PinAt(pr netlist.PinRef) Point {
	return l.pinPos[l.pinOff[pr.Cell]+int32(pr.Pin)]
}

// clockSinksOf returns the flip-flops clocked by net id.
func (l *Layout) clockSinksOf(id netlist.NetID) []netlist.CellID {
	return l.clockSinkCells[l.clockSinkOff[id-1]:l.clockSinkOff[id]]
}

// Build places and routes the circuit. Parasitic extraction is a
// separate step (Extract) so tests can inspect pure geometry.
func Build(c *netlist.Circuit, opts Options) (*Layout, error) {
	opts = opts.withDefaults()
	if len(c.Cells) == 0 {
		return nil, fmt.Errorf("layout: circuit %s has no cells", c.Name)
	}
	l := &Layout{
		Opts:    opts,
		Circuit: c,
		CellPos: make([]Point, len(c.Cells)),
		OutPos:  make([]Point, len(c.Cells)),
		POPos:   make([]Point, len(c.Nets)),
		PIPos:   make([]Point, len(c.Nets)),
		trees:   make([]NetTree, len(c.Nets)),
	}
	l.buildClockSinks()
	sp := opts.Trace.Begin("place", 0).Arg("cells", len(c.Cells))
	l.place()
	sp.End()
	sp = opts.Trace.Begin("route", 0).Arg("nets", len(c.Nets))
	err := l.route()
	sp.Arg("trunk_fallbacks", l.TrunkFallbacks).End()
	if err != nil {
		return nil, err
	}
	opts.Metrics.Counter(obs.MLayoutNetsRouted).Add(int64(len(l.trees)))
	total, _ := l.WirelengthStats()
	opts.Metrics.Gauge(obs.MLayoutWirelength).Set(total * 1e3)
	return l, nil
}

// buildClockSinks indexes the flip-flops per clock net as a CSR
// (counting pass, then fill), preserving cell order within each net.
func (l *Layout) buildClockSinks() {
	c := l.Circuit
	l.clockSinkOff = make([]int32, len(c.Nets)+1)
	total := 0
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			l.clockSinkOff[cell.Clock]++
			total++
		}
	}
	for i := 1; i < len(l.clockSinkOff); i++ {
		l.clockSinkOff[i] += l.clockSinkOff[i-1]
	}
	l.clockSinkCells = make([]netlist.CellID, total)
	fill := make([]int32, len(c.Nets))
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet {
			base := l.clockSinkOff[cell.Clock-1]
			l.clockSinkCells[base+fill[cell.Clock-1]] = cell.ID
			fill[cell.Clock-1]++
		}
	}
}

// place arranges cells in snake order over rows: combinational cells in
// topological order interleaved with their flip-flops keeps connected
// cells near each other, which is what row-based placers achieve.
func (l *Layout) place() {
	c := l.Circuit
	order, err := c.TopoOrder()
	if err != nil {
		// Validate() ran at construction; an error here would be a bug
		// upstream — place defensively in index order.
		order = nil
		for i := range c.Cells {
			order = append(order, netlist.CellID(i))
		}
	} else {
		// Insert each flip-flop right before the earliest consumer of
		// its Q output, so register banks sit next to the logic they
		// feed (what a real placer's net model achieves).
		pos := make([]int32, len(c.Cells))
		for i := range pos {
			pos[i] = -1
		}
		for i, cid := range order {
			pos[cid] = int32(i)
		}
		type keyed struct {
			cid netlist.CellID
			key float64
		}
		items := make([]keyed, 0, len(c.Cells))
		for i, cid := range order {
			items = append(items, keyed{cid, float64(i)})
		}
		for _, cell := range c.Cells {
			if cell.Kind != netlist.DFF {
				continue
			}
			key := float64(len(order)) // no consumer: park at the end
			for _, pr := range c.Net(cell.Out).Fanout {
				if p := pos[pr.Cell]; p >= 0 && float64(p)-0.5 < key {
					key = float64(p) - 0.5
				}
			}
			items = append(items, keyed{cell.ID, key})
		}
		sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key })
		order = order[:0]
		for _, it := range items {
			order = append(order, it.cid)
		}
	}

	// Input-pin position CSR, offsets by cell id.
	l.pinOff = make([]int32, len(c.Cells)+1)
	for i, cell := range c.Cells {
		l.pinOff[i+1] = l.pinOff[i] + int32(len(cell.In))
	}
	l.pinPos = make([]Point, l.pinOff[len(c.Cells)])

	cellW := func(cell *netlist.Cell) float64 {
		return baseCellWidth + float64(len(cell.In))*widthPerPin
	}
	// Row width targets a square die: total width / sqrt(n rows).
	totalW := 0.0
	for _, cid := range order {
		totalW += cellW(c.Cell(cid))
	}
	rowW := math.Sqrt(totalW * rowHeight)
	if rowW < 4*baseCellWidth {
		rowW = 4 * baseCellWidth
	}

	x, row := 0.0, 0
	dir := 1.0
	maxX := 0.0
	for _, cid := range order {
		cell := c.Cell(cid)
		w := cellW(cell)
		if x+w > rowW {
			row++
			x = 0
			dir = -dir
		}
		// Snake order: odd rows fill right-to-left.
		px := x
		if dir < 0 {
			px = rowW - x - w
		}
		py := float64(row) * rowHeight
		l.CellPos[cid] = Point{px, py}
		for pin := range cell.In {
			frac := float64(pin+1) / float64(len(cell.In)+2)
			l.pinPos[l.pinOff[cid]+int32(pin)] = Point{px + frac*w, py}
		}
		l.OutPos[cid] = Point{px + 0.8*w, py}
		x += w
		if px+w > maxX {
			maxX = px + w
		}
	}
	l.DieW = maxX
	l.DieH = float64(row+1) * rowHeight

	// Primary I/O pins on the die boundary, spread deterministically.
	for i, pi := range c.PIs {
		frac := float64(i+1) / float64(len(c.PIs)+1)
		l.PIPos[pi-1] = Point{frac * l.DieW, 0}
	}
	for i, po := range c.POs {
		frac := float64(i+1) / float64(len(c.POs)+1)
		l.POPos[po-1] = Point{frac * l.DieW, l.DieH}
	}
}

// trackOcc tracks per-track occupied intervals for the greedy
// legalizer.
type trackOcc struct {
	intervals map[int][]seg // track → segments, kept sorted by lo
}

func newTrackOcc() *trackOcc {
	return &trackOcc{intervals: make(map[int][]seg)}
}

// placeSeg finds the closest track to want (within maxSearch) where
// [lo, hi] does not overlap an existing segment, inserts, and returns
// the chosen track.
func (o *trackOcc) placeSeg(net netlist.NetID, want int, lo, hi float64, maxSearch int) (int, bool) {
	for d := 0; d <= maxSearch; d++ {
		for _, tr := range []int{want + d, want - d} {
			if d == 0 && tr != want {
				continue
			}
			if o.fits(tr, lo, hi) {
				o.insert(seg{net: net, track: tr, lo: lo, hi: hi})
				return tr, true
			}
		}
	}
	return 0, false
}

func (o *trackOcc) fits(track int, lo, hi float64) bool {
	for _, s := range o.intervals[track] {
		if s.lo < hi && lo < s.hi {
			return false
		}
	}
	return true
}

func (o *trackOcc) insert(s seg) {
	lst := o.intervals[s.track]
	// Binary insert keeps the track sorted by lo without re-sorting the
	// whole list on every insertion.
	i := sort.Search(len(lst), func(i int) bool { return lst[i].lo >= s.lo })
	lst = append(lst, seg{})
	copy(lst[i+1:], lst[i:])
	lst[i] = s
	o.intervals[s.track] = lst
}

// clockPinIndex aliases the protocol constant for DFF clock pins.
const clockPinIndex = netlist.ClockPinIndex

// ClockPin is the PinRef pin index used for flip-flop clock pins.
func ClockPin() int { return clockPinIndex }

// route builds trunk-and-branch routes for every net and the per-net
// Elmore trees. It is a streaming pass: one counting sweep sizes the
// flattened tree-node arena and the sink slabs exactly, then the build
// sweep reuses a fixed set of scratch buffers per net, so peak memory
// beyond the retained output is O(max fanout).
func (l *Layout) route() error {
	c := l.Circuit
	hOcc := newTrackOcc()
	vOcc := newTrackOcc()
	pitch := trackPitch

	// Counting sweep: a routed net's tree has exactly 2·taps nodes
	// (root, driver-branch node, taps-1 trunk nodes, taps-1 sink-branch
	// nodes) where taps = 1 + sinks (+1 for a PO tap); an unloaded net
	// keeps a root-only tree.
	totalNodes, totalSinks := 0, 0
	for _, n := range c.Nets {
		nsink := len(n.Fanout) + len(l.clockSinksOf(n.ID))
		if nsink == 0 && !n.IsPO {
			totalNodes++
			continue
		}
		ntaps := 1 + nsink
		if n.IsPO {
			ntaps++
		}
		totalNodes += 2 * ntaps
		totalSinks += nsink
	}
	arena := elmore.NewArena(totalNodes)
	refSlab := make([]netlist.PinRef, totalSinks)
	nodeSlab := make([]int32, totalSinks)
	slabUsed := 0
	l.hsegs = make([]seg, 0, len(c.Nets))

	// Per-net scratch, reused across the whole sweep.
	type tap struct {
		x      float64
		branch float64 // branch wire length
		sink   int     // index into refs, -1 driver, -2 PO
	}
	var (
		sinks  []Point
		ys, xs []float64
		taps   []tap
		nodeOf []int
	)

	// Deterministic net order: by ID.
	for _, n := range c.Nets {
		cs := l.clockSinksOf(n.ID)
		nsink := len(n.Fanout) + len(cs)
		if nsink == 0 && !n.IsPO {
			// Unloaded net (should not happen after generation, but a
			// parsed benchmark may have dangling nets): no route.
			l.trees[n.ID-1] = NetTree{Tree: arena.Carve(0, 1), PONode: -1}
			continue
		}
		// Geometric pins: driver output (or PI pad), sink pins, PO pad.
		// DFF clock pins: a clock net's fanout list only covers data
		// pins; clock connectivity lives on Cell.Clock.
		var driver Point
		if n.Driver != netlist.NoCell {
			driver = l.OutPos[n.Driver]
		} else {
			driver = l.PIPos[n.ID-1]
		}
		refs := refSlab[slabUsed : slabUsed : slabUsed+nsink]
		sinkNodes := nodeSlab[slabUsed : slabUsed+nsink : slabUsed+nsink]
		slabUsed += nsink
		sinks = sinks[:0]
		for _, pr := range n.Fanout {
			sinks = append(sinks, l.PinAt(pr))
			refs = append(refs, pr)
		}
		for _, cid := range cs {
			p := l.CellPos[cid]
			sinks = append(sinks, Point{p.X, p.Y})
			refs = append(refs, netlist.PinRef{Cell: cid, Pin: clockPinIndex})
		}
		hasPO := n.IsPO
		var poPt Point
		if hasPO {
			poPt = l.POPos[n.ID-1]
		}

		// Trunk Y: median of pin Ys, snapped to the track grid.
		ys, xs = ys[:0], xs[:0]
		ys = append(ys, driver.Y)
		xs = append(xs, driver.X)
		for _, p := range sinks {
			ys = append(ys, p.Y)
			xs = append(xs, p.X)
		}
		if hasPO {
			ys = append(ys, poPt.Y)
			xs = append(xs, poPt.X)
		}
		sort.Float64s(ys)
		wantTrack := int(math.Round(ys[len(ys)/2] / pitch))
		xlo, xhi := xs[0], xs[0]
		for _, x := range xs {
			if x < xlo {
				xlo = x
			}
			if x > xhi {
				xhi = x
			}
		}
		if xhi-xlo < pitch {
			xhi = xlo + pitch // degenerate trunk still occupies a stub
		}
		track, ok := hOcc.placeSeg(n.ID, wantTrack, xlo, xhi, l.Opts.maxTrackSearch)
		if !ok {
			// Congestion fallback: stack on the preferred track anyway.
			// A real router would use additional layers; geometrically
			// this only forfeits the (tiny) coupling the displaced
			// trunk would have seen.
			track = wantTrack
			hOcc.insert(seg{net: n.ID, track: track, lo: xlo, hi: xhi})
			l.TrunkFallbacks++
		}
		trunkY := float64(track) * pitch
		l.hsegs = append(l.hsegs, seg{net: n.ID, track: track, lo: xlo, hi: xhi})

		// Vertical branches: one per pin from its Y to the trunk.
		addBranch := func(p Point) float64 {
			lo, hi := math.Min(p.Y, trunkY), math.Max(p.Y, trunkY)
			if hi-lo < 1e-12 {
				return 0 // pin sits on the trunk
			}
			wantV := int(math.Round(p.X / pitch))
			vt, ok := vOcc.placeSeg(n.ID, wantV, lo, hi, l.Opts.maxTrackSearch)
			if !ok {
				// Branch congestion: fall back to stacking on the
				// preferred track anyway (real routers use more layers).
				vt = wantV
				vOcc.insert(seg{net: n.ID, track: vt, lo: lo, hi: hi})
			}
			l.vsegs = append(l.vsegs, seg{net: n.ID, track: vt, lo: lo, hi: hi})
			return hi - lo
		}

		// RC tree: root is the driver pin; the driver branch reaches
		// the trunk, then the trunk chains between tap x positions, and
		// sink branches hang off their taps. Edge "resistances" store
		// raw lengths here; Extract scales them by process constants.
		nt := NetTree{SinkRefs: refs, SinkNodes: sinkNodes, PONode: -1}
		ntaps := 1 + len(sinks)
		if hasPO {
			ntaps++
		}
		tree := arena.Carve(0, 2*ntaps)

		taps = taps[:0]
		taps = append(taps, tap{x: driver.X, branch: addBranch(driver), sink: -1})
		for i, p := range sinks {
			taps = append(taps, tap{x: p.X, branch: addBranch(p), sink: i})
		}
		if hasPO {
			taps = append(taps, tap{x: poPt.X, branch: addBranch(poPt), sink: -2})
		}
		sort.Slice(taps, func(i, j int) bool { return taps[i].x < taps[j].x })

		// Locate the driver tap.
		drvIdx := 0
		for i, tp := range taps {
			if tp.sink == -1 {
				drvIdx = i
				break
			}
		}
		wireLen := xhi - xlo
		// Build tree nodes; lengths are stored as "resistance/cap per
		// meter = 1" and scaled in Extract.
		if cap(nodeOf) < len(taps) {
			nodeOf = make([]int, len(taps))
		}
		nodeOf = nodeOf[:len(taps)]
		// Driver branch from the root to the driver tap.
		drvNode, err := tree.AddNode(0, taps[drvIdx].branch, 0)
		if err != nil {
			return err
		}
		nodeOf[drvIdx] = drvNode
		wireLen += taps[drvIdx].branch
		// Walk right then left from the driver tap along the trunk.
		for i := drvIdx + 1; i < len(taps); i++ {
			segLen := taps[i].x - taps[i-1].x
			node, err := tree.AddNode(nodeOf[i-1], segLen, 0)
			if err != nil {
				return err
			}
			nodeOf[i] = node
		}
		for i := drvIdx - 1; i >= 0; i-- {
			segLen := taps[i+1].x - taps[i].x
			node, err := tree.AddNode(nodeOf[i+1], segLen, 0)
			if err != nil {
				return err
			}
			nodeOf[i] = node
		}
		// Sink branches.
		for i, tp := range taps {
			if tp.sink == -1 {
				continue
			}
			node, err := tree.AddNode(nodeOf[i], tp.branch, 0)
			if err != nil {
				return err
			}
			wireLen += tp.branch
			if tp.sink == -2 {
				nt.PONode = int32(node)
			} else {
				nt.SinkNodes[tp.sink] = int32(node)
			}
		}
		nt.Tree = tree
		nt.WireLen = wireLen
		l.trees[n.ID-1] = nt
	}
	return nil
}

// WirelengthStats summarizes routed wirelength for reporting.
func (l *Layout) WirelengthStats() (total, max float64) {
	for i := range l.trees {
		wl := l.trees[i].WireLen
		total += wl
		if wl > max {
			max = wl
		}
	}
	return total, max
}

// couplingKey is an unordered net pair.
type couplingKey struct{ a, b netlist.NetID }

func orderedKey(a, b netlist.NetID) couplingKey {
	if a > b {
		a, b = b, a
	}
	return couplingKey{a, b}
}

// adjacentOverlaps finds, for every pair of segments on adjacent tracks
// of one layer, their extent overlap, accumulating aggregated overlap
// length per net pair into out. The segment slice is sorted in place by
// (track, lo) so the accumulation order is deterministic.
func adjacentOverlaps(segs []seg, minOverlap float64, out map[couplingKey]float64) {
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].track != segs[j].track {
			return segs[i].track < segs[j].track
		}
		return segs[i].lo < segs[j].lo
	})
	runStart := 0
	for runStart < len(segs) {
		track := segs[runStart].track
		runEnd := runStart + 1
		for runEnd < len(segs) && segs[runEnd].track == track {
			runEnd++
		}
		if runEnd == len(segs) || segs[runEnd].track != track+1 {
			runStart = runEnd
			continue
		}
		nbrEnd := runEnd + 1
		for nbrEnd < len(segs) && segs[nbrEnd].track == track+1 {
			nbrEnd++
		}
		lst, nbr := segs[runStart:runEnd], segs[runEnd:nbrEnd]
		// Merge scan: both runs sorted by lo.
		j := 0
		for _, a := range lst {
			// Advance past neighbors that end before a starts.
			for j < len(nbr) && nbr[j].hi <= a.lo {
				j++
			}
			for k := j; k < len(nbr) && nbr[k].lo < a.hi; k++ {
				b := nbr[k]
				if a.net == b.net {
					continue
				}
				ov := math.Min(a.hi, b.hi) - math.Max(a.lo, b.lo)
				if ov >= minOverlap {
					out[orderedKey(a.net, b.net)] += ov
				}
			}
		}
		runStart = runEnd
	}
}

// Extract annotates the circuit's nets with parasitics derived from the
// routed geometry. pinCap maps each sink pin to its capacitance (the
// transistor-level gate input capacitance); poCap is the load of a
// primary-output pad. The per-net scaled tree and Elmore buffers are
// reused across nets, and the finished coupling lists are compacted
// into one contiguous slab (netlist.CompactCouplings), so extraction
// allocates O(coupling pairs) beyond the annotations it retains.
func (l *Layout) Extract(proc device.Process, pinCap func(netlist.PinRef) float64, poCap float64) error {
	c := l.Circuit
	sp := l.Opts.Trace.Begin("extract", 0).Arg("nets", len(c.Nets))
	defer sp.End()
	// Wire R/C from lengths.
	var scratch elmore.Tree
	var delays, down []float64
	for _, n := range c.Nets {
		nt := l.Tree(n.ID)
		if nt == nil {
			continue
		}
		n.Par = netlist.Parasitics{
			CWire:         proc.CwirePerLen * nt.WireLen,
			RWire:         proc.RwirePerLen * nt.WireLen,
			SinkWireDelay: make(map[netlist.PinRef]float64, len(nt.SinkRefs)),
		}
		// Scale the unit-length tree into a real RC tree: the tree was
		// built with R = length; rebuild with process constants and pin
		// caps, then read the Elmore delays.
		if err := scaleTree(nt, &scratch, proc, pinCap, poCap); err != nil {
			return fmt.Errorf("layout: net %s: %w", n.Name, err)
		}
		delays, down = scratch.DelaysInto(delays, down)
		for i, pr := range nt.SinkRefs {
			n.Par.SinkWireDelay[pr] = delays[nt.SinkNodes[i]]
		}
		if nt.PONode >= 0 {
			n.Par.POWireDelay = delays[nt.PONode]
		}
	}
	// Coupling caps from adjacency on both layers.
	overlaps := make(map[couplingKey]float64)
	adjacentOverlaps(l.hsegs, minCouplingOverlap, overlaps)
	adjacentOverlaps(l.vsegs, minCouplingOverlap, overlaps)
	// Deterministic pair order for every accumulation below.
	pairs := make([]couplingKey, 0, len(overlaps))
	for k := range overlaps {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	// Shielding normalization: a wire physically has at most one
	// neighbor per side, so its total coupled run length cannot exceed
	// twice its own length. Congestion fallbacks stack several segments
	// on one track, which would otherwise multiply-count the same
	// geometric adjacency; scale each net's overlaps down to the
	// physical budget, symmetrically per pair.
	totalOv := make([]float64, len(c.Nets))
	for _, k := range pairs {
		ov := overlaps[k]
		totalOv[k.a-1] += ov
		totalOv[k.b-1] += ov
	}
	scale := func(id netlist.NetID) float64 {
		nt := l.Tree(id)
		if nt == nil || totalOv[id-1] == 0 {
			return 1
		}
		budget := 2 * nt.WireLen
		if totalOv[id-1] <= budget {
			return 1
		}
		return budget / totalOv[id-1]
	}
	for _, k := range pairs {
		ov := overlaps[k]
		s := math.Min(scale(k.a), scale(k.b))
		cc := proc.CcouplePerLen * ov * s
		na, nb := c.Net(k.a), c.Net(k.b)
		na.Par.Couplings = append(na.Par.Couplings, netlist.Coupling{Other: k.b, C: cc})
		nb.Par.Couplings = append(nb.Par.Couplings, netlist.Coupling{Other: k.a, C: cc})
	}
	l.Opts.Metrics.Counter(obs.MLayoutCouplingPairs).Add(int64(len(overlaps)))
	sp.Arg("coupling_pairs", len(overlaps))
	// Deterministic coupling order.
	for _, n := range c.Nets {
		sort.Slice(n.Par.Couplings, func(i, j int) bool {
			return n.Par.Couplings[i].Other < n.Par.Couplings[j].Other
		})
	}
	// Re-point the finished per-net lists into one contiguous slab.
	c.CompactCouplings()
	return nil
}

// scaleTree converts a unit-length tree (edge R = meters) into a real
// RC tree with process constants and terminal capacitances, rebuilding
// into the caller's reusable scratch tree.
func scaleTree(nt *NetTree, out *elmore.Tree, proc device.Process, pinCap func(netlist.PinRef) float64, poCap float64) error {
	src := &nt.Tree
	n := src.NumNodes()
	out.Reset(0)
	// The source tree's node i>0 has parent p and edge "R" = length.
	// Rebuild in index order (parents precede children by construction).
	for i := 1; i < n; i++ {
		length := src.EdgeR(i)
		parent := src.Parent(i)
		r := proc.RwirePerLen * length
		if r <= 0 {
			r = 1e-3 // zero-length stubs: negligible resistance
		}
		cw := proc.CwirePerLen * length
		// Distribute wire cap: half at each end.
		if _, err := out.AddNode(parent, r, cw/2); err != nil {
			return err
		}
		if err := out.AddCap(parent, cw/2); err != nil {
			return err
		}
	}
	for i, pr := range nt.SinkRefs {
		if err := out.AddCap(int(nt.SinkNodes[i]), pinCap(pr)); err != nil {
			return err
		}
	}
	if nt.PONode >= 0 {
		if err := out.AddCap(int(nt.PONode), poCap); err != nil {
			return err
		}
	}
	return nil
}
