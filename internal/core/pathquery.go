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
	return e.pathSteps(st, e.predWalk(st, n.ID, dir)), nil
}
