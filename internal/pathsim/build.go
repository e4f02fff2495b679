package pathsim

import (
	"fmt"
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/core"
	"xtalksta/internal/device"
	"xtalksta/internal/netlist"
	"xtalksta/internal/spice"
	"xtalksta/internal/waveform"
)

// build assembles the coupled path circuit:
//
//	launch ──wire──▶ stage1 ──wire──▶ stage2 … ──wire──▶ endpoint load
//	                   │Cc                │Cc
//	               aggressor          aggressor   (driven PWL nodes)
//
// Each wire is the extracted lumped R with the grounded wire cap split
// between its ends and the off-path sink loads at the far end. Coupling
// caps attach at the far (receiver) end of the victim wire; couplings
// between two path nets connect the real nodes instead of a source.
func build(c *netlist.Circuit, lib *device.Library, siz ccc.Sizing, path []core.PathStep, cfg Config) (*sim, error) {
	p := lib.Proc
	ckt := spice.NewCircuit()
	vdd, err := ckt.Rail("vdd", p.VDD)
	if err != nil {
		return nil, err
	}

	s := &sim{
		ckt:      ckt,
		cfg:      cfg,
		vdd:      p.VDD,
		initialV: make(map[spice.NodeID]float64),
	}

	// Resolve path nets and their stage index.
	nets := make([]*netlist.Net, len(path))
	stageOf := make(map[netlist.NetID]int, len(path))
	for i, step := range path {
		n, ok := c.NetByName(step.Net)
		if !ok {
			return nil, fmt.Errorf("pathsim: path net %q not in circuit", step.Net)
		}
		nets[i] = n
		stageOf[n.ID] = i
	}

	railOf := func(dir waveform.Direction) (v0, v1 float64) {
		if dir == waveform.Rising {
			return 0, p.VDD
		}
		return p.VDD, 0
	}

	// Launch driver.
	lv0, lv1 := railOf(path[0].Dir)
	s.launch = &spice.RampSource{T0: cfg.LaunchTime, TR: 0.2e-9, V0: lv0, V1: lv1}
	launchNode, err := ckt.DriveNode("launch", s.launch)
	if err != nil {
		return nil, err
	}

	// outNodes[i] is the driver-output node of path net i; farNodes[i]
	// the receiver end of its wire.
	s.outNodes = make([]spice.NodeID, len(path))
	farNodes := make([]spice.NodeID, len(path))
	s.outNodes[0] = launchNode

	pinCapOf := ccc.PinCapFunc(c, p, siz)

	// addWire strings net i's extracted lumped RC between its out node
	// and a new far node, parking the off-path sink loads at the far
	// end. nextCell is the on-path receiver (nil at the endpoint).
	addWire := func(i int, nextCell *netlist.Cell) (spice.NodeID, error) {
		n := nets[i]
		far := ckt.Node(fmt.Sprintf("far%d", i))
		r := n.Par.RWire
		if r <= 0 {
			r = 1e-3
		}
		if err := ckt.AddResistor(fmt.Sprintf("rw%d", i), s.outNodes[i], far, r); err != nil {
			return 0, err
		}
		if err := ckt.AddCapacitor(fmt.Sprintf("cwn%d", i), s.outNodes[i], spice.Ground, n.Par.CWire/2); err != nil {
			return 0, err
		}
		if err := ckt.AddCapacitor(fmt.Sprintf("cwf%d", i), far, spice.Ground, n.Par.CWire/2); err != nil {
			return 0, err
		}
		// Off-path sinks load the far end (their gates are real caps in
		// silicon; lumping them keeps the circuit a chain).
		off := 0.0
		for _, pr := range n.Fanout {
			if nextCell != nil && pr.Cell == nextCell.ID {
				continue // the on-path receiver is real transistors
			}
			off += pinCapOf(pr)
		}
		if n.IsPO {
			off += 30e-15
		}
		if err := ckt.AddCapacitor(fmt.Sprintf("coff%d", i), far, spice.Ground, off); err != nil {
			return 0, err
		}
		farNodes[i] = far
		return far, nil
	}

	// Stages.
	for i := 1; i < len(path); i++ {
		n := nets[i]
		if n.Driver == netlist.NoCell {
			return nil, fmt.Errorf("pathsim: path net %q has no driver", n.Name)
		}
		cell := c.Cell(n.Driver)
		if cell.Name != path[i].Cell {
			return nil, fmt.Errorf("pathsim: path step %d: driver %q does not match step cell %q",
				i, cell.Name, path[i].Cell)
		}
		// Wire of the previous net feeds this stage.
		far, err := addWire(i-1, cell)
		if err != nil {
			return nil, err
		}
		// Switching pin: where the previous net enters the cell.
		pin := -1
		for pi, in := range cell.In {
			if in == nets[i-1].ID {
				pin = pi
				break
			}
		}
		if pin < 0 {
			return nil, fmt.Errorf("pathsim: net %q does not feed cell %q", nets[i-1].Name, cell.Name)
		}
		out := ckt.Node(fmt.Sprintf("out%d", i))
		s.outNodes[i] = out
		gates := make([]spice.NodeID, len(cell.In))
		for pi := range cell.In {
			if pi == pin {
				gates[pi] = far
				continue
			}
			var lvl float64
			if cell.Kind == netlist.NAND {
				lvl = p.VDD
			}
			rail, err := ckt.Rail(fmt.Sprintf("side%d_%d", i, pi), lvl)
			if err != nil {
				return nil, err
			}
			gates[pi] = rail
		}
		sizeMult := siz.Mult(c, cell)
		if err := ccc.AddTransistors(ckt, lib, siz, cell.Kind, gates, out, vdd, sizeMult, fmt.Sprintf("s%d", i)); err != nil {
			return nil, err
		}
		selfCap, err := ccc.OutputDrainCap(p, siz, cell.Kind, len(cell.In), sizeMult)
		if err != nil {
			return nil, err
		}
		if err := ckt.AddCapacitor(fmt.Sprintf("cj%d", i), out, spice.Ground, selfCap); err != nil {
			return nil, err
		}
	}
	// Endpoint wire + load.
	last := len(path) - 1
	endFar, err := addWire(last, nil)
	if err != nil {
		return nil, err
	}
	// Endpoint pin (DFF data or PO pad) load.
	if err := ckt.AddCapacitor("cend", endFar, spice.Ground, ccc.DFFDataCap(p, siz)); err != nil {
		return nil, err
	}
	s.endNode = endFar
	s.endDir = path[last].Dir

	// Coupling capacitances. Aggressor driven nodes are shared per
	// (net, direction); path-to-path couplings connect real nodes.
	type aggKey struct {
		net netlist.NetID
		dir waveform.Direction
	}
	aggNode := make(map[aggKey]int) // → index into s.aggSrcs
	pairDone := make(map[[2]netlist.NetID]bool)
	for i := 1; i < len(path); i++ {
		n := nets[i]
		vicDir := path[i].Dir
		aggDir := vicDir.Opposite()
		for _, cp := range n.Par.Couplings {
			if j, onPath := stageOf[cp.Other]; onPath {
				// Real node-to-node coupling; add once per pair.
				key := [2]netlist.NetID{n.ID, cp.Other}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if pairDone[key] || j == 0 {
					continue
				}
				pairDone[key] = true
				if err := ckt.AddCapacitor(fmt.Sprintf("ccp%d_%d", i, j), farNodes[i], s.outNodes[j], cp.C); err != nil {
					return nil, err
				}
				continue
			}
			key := aggKey{cp.Other, aggDir}
			ai, ok := aggNode[key]
			if !ok {
				av0, av1 := railOf(aggDir)
				src := &spice.RampSource{T0: math.Inf(1), TR: cfg.AggSlew, V0: av0, V1: av1}
				name := fmt.Sprintf("agg_%s_%s", c.Net(cp.Other).Name, aggDir)
				node, err := ckt.DriveNode(name, src)
				if err != nil {
					return nil, err
				}
				ai = len(s.aggSrcs)
				s.aggSrcs = append(s.aggSrcs, src)
				s.aggs = append(s.aggs, Aggressor{Net: c.Net(cp.Other).Name, Dir: aggDir})
				s.aggStage = append(s.aggStage, i)
				s.aggNodeID = append(s.aggNodeID, node)
				aggNode[key] = ai
			}
			s.aggs[ai].Cc += cp.C
			if err := ckt.AddCapacitor(fmt.Sprintf("cc%d_%d", i, ai), farNodes[i], s.aggNodeID[ai], cp.C); err != nil {
				return nil, err
			}
		}
	}

	// Initial node voltages consistent with the path's logic state.
	for i := 1; i < len(path); i++ {
		v0, _ := railOf(path[i].Dir)
		s.initialV[s.outNodes[i]] = v0
		s.initialV[farNodes[i]] = v0
	}
	if last >= 1 {
		v0, _ := railOf(path[last].Dir)
		s.initialV[endFar] = v0
	}
	v0, _ := railOf(path[0].Dir)
	s.initialV[farNodes[0]] = v0

	// Simulation window from the STA's own path arrival estimate.
	est := path[last].Arrival - path[0].Arrival
	if est < 1e-9 {
		est = 1e-9
	}
	s.tstop = cfg.LaunchTime + 2.5*est + 2e-9
	return s, nil
}
