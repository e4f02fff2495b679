package core

import (
	"fmt"
	"math"
	"sort"

	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// Hold analysis (extension): the min-delay counterpart of the setup
// report. The earliest-arrival pass (minSweep) bounds how soon each
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
	early, _, err := e.minSweep()
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

// minSweep computes the earliest 50% arrivals per (net, dir) and their
// slews over every line, with best-case arc delays (+Inf where a line
// never switches that way).
func (e *Engine) minSweep() (early, slews [][2]float64, err error) {
	c := e.C
	early = make([][2]float64, len(c.Nets))
	slews = make([][2]float64, len(c.Nets))
	for i := range early {
		early[i] = [2]float64{math.Inf(1), math.Inf(1)}
	}
	for _, pi := range c.PIs {
		slew := e.piSlewFor(pi)
		early[pi-1], slews[pi-1] = [2]float64{0, 0}, [2]float64{slew, slew}
	}

	process := func(cell *netlist.Cell) error {
		out := cell.Out
		inf := &e.info[out-1]
		ne, ns := [2]float64{math.Inf(1), math.Inf(1)}, [2]float64{}
		for dOut := 0; dOut < 2; dOut++ {
			dIn := 1 - dOut
			for pin, inNet := range cell.In {
				if math.IsInf(early[inNet-1][dIn], 1) {
					continue
				}
				inArr := early[inNet-1][dIn]
				if !e.opts.PiModel {
					inArr += e.sink.At(cell.ID, pin)
				}
				inSlew := slews[inNet-1][dIn]
				if inSlew <= 0 {
					inSlew = piSlew
				}
				// Fastest plausible conditions: coupling caps grounded
				// at face value (neighbors quiet), the load lumped at
				// the driver.
				res, err := e.Calc.Eval(e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0, false))
				if err != nil {
					return err
				}
				if a := inArr + res.Delay; a < ne[dOut] {
					ne[dOut] = a
					ns[dOut] = res.OutSlew
				}
			}
		}
		early[out-1], slews[out-1] = ne, ns
		return nil
	}

	// Clock tree first, then flip-flop launches, then the rest: the
	// timing sweep's phase order.
	for _, cid := range e.order {
		if cell := c.Cell(cid); c.Net(cell.Out).IsClock {
			if err := process(cell); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		launch := e.launchTime(cell, func(clk netlist.NetID) float64 { return early[clk-1][dirRise] })
		ds := dffOutSlew
		early[cell.Out-1], slews[cell.Out-1] = [2]float64{launch, launch}, [2]float64{ds, ds}
	}
	for _, cid := range e.order {
		if cell := c.Cell(cid); !c.Net(cell.Out).IsClock {
			if err := process(cell); err != nil {
				return nil, nil, err
			}
		}
	}
	return early, slews, nil
}
