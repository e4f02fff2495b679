package core

import (
	"fmt"
	"math"
	"sort"

	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// Hold analysis (extension): the min-delay counterpart of the setup
// report. The earliest-arrival pass (windows.go) bounds how soon each
// endpoint can change after the launching clock edge; an endpoint
// violates hold when that earliest arrival is shorter than the
// flip-flop hold requirement (same-edge check, zero skew — the clock
// tree's insertion delay affects launch and capture alike here).

// HoldEndpoint is one endpoint's earliest arrival.
type HoldEndpoint struct {
	Net     string
	Kind    string
	Dir     waveform.Direction
	Arrival float64 // earliest 50% arrival
	Hold    float64 // hold requirement (0 for POs)
}

// Slack returns arrival − hold.
func (h HoldEndpoint) Slack() float64 { return h.Arrival - h.Hold }

// HoldReport is the per-endpoint min-delay view.
type HoldReport struct {
	Endpoints []HoldEndpoint // sorted worst-first
	HoldTime  float64
}

// Violations returns endpoints with negative hold slack.
func (hr *HoldReport) Violations() []HoldEndpoint {
	var out []HoldEndpoint
	for _, ep := range hr.Endpoints {
		if ep.Slack() < 0 {
			out = append(out, ep)
		}
	}
	return out
}

// WorstSlack returns the smallest hold slack.
func (hr *HoldReport) WorstSlack() float64 {
	if len(hr.Endpoints) == 0 {
		return math.Inf(1)
	}
	return hr.Endpoints[0].Slack()
}

// ReportHold computes earliest 50% arrivals (best-case delays,
// neighbors quiet — the fast direction) and checks them against the
// flip-flop hold time.
func (e *Engine) ReportHold(holdTime float64) (*HoldReport, error) {
	if holdTime < 0 {
		return nil, fmt.Errorf("core: hold time must be non-negative, got %g", holdTime)
	}
	early, _, _, err := e.minSweep(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &HoldReport{HoldTime: holdTime}
	for _, ep := range e.endpoints {
		arr := math.Inf(1)
		dir := dirRise
		for d := 0; d < 2; d++ {
			if a := early[ep.net-1][d]; a < arr {
				arr = a
				dir = d
			}
		}
		if math.IsInf(arr, 1) {
			continue
		}
		n := e.endpointName(ep)
		he := HoldEndpoint{
			Net:     n.Net,
			Kind:    n.Kind,
			Dir:     dirOf(dir),
			Arrival: arr + ep.extra,
		}
		if ep.cell != netlist.NoCell {
			he.Hold = holdTime
		}
		rep.Endpoints = append(rep.Endpoints, he)
	}
	sort.Slice(rep.Endpoints, func(i, j int) bool {
		si, sj := rep.Endpoints[i].Slack(), rep.Endpoints[j].Slack()
		if si != sj {
			return si < sj
		}
		return rep.Endpoints[i].Net < rep.Endpoints[j].Net
	})
	return rep, nil
}
