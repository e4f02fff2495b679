package core

import (
	"fmt"
	"math"
)

// PathTo runs the configured analysis and reconstructs the worst path
// into the named net (any net, not just the global-worst endpoint) —
// the `report_timing -to` query of classic timers.
func (e *Engine) PathTo(netName string) ([]PathStep, error) {
	n, ok := e.C.NetByName(netName)
	if !ok {
		return nil, fmt.Errorf("core: unknown net %q", netName)
	}
	st, _, err := e.analyze(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &st[n.ID-1]
	if !s.calculated {
		return nil, fmt.Errorf("core: net %q has no timing state (unreachable)", netName)
	}
	dir := dirRise
	if s.arrival[dirFall] > s.arrival[dirRise] {
		dir = dirFall
	}
	if math.IsInf(s.arrival[dir], -1) {
		return nil, fmt.Errorf("core: net %q never switches", netName)
	}
	var path []PathStep
	net, d := n.ID, dir
	for steps := 0; steps < len(e.C.Nets)+2; steps++ {
		cur := &st[net-1]
		cellName := ""
		if p := cur.pred[d]; p.valid {
			cellName = e.C.Cell(p.cell).Name
		}
		path = append(path, PathStep{
			Net: e.C.Net(net).Name, Dir: dirOf(d), Arrival: cur.arrival[d], Cell: cellName,
		})
		p := cur.pred[d]
		if !p.valid {
			break
		}
		net, d = p.fromNet, p.fromDir
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}
