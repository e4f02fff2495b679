package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"xtalksta/internal/ccc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// EndpointArrival is one endpoint's worst arrival.
type EndpointArrival struct {
	Net     string
	Kind    string // "DFF/D" or "PO"
	Cell    string // capturing flip-flop ("" for POs)
	Dir     waveform.Direction
	Arrival float64
	// Setup is the flip-flop setup requirement (0 for POs).
	Setup float64
}

// Slack returns the setup slack against a clock period: period − setup
// − arrival (POs have no setup).
func (ea EndpointArrival) Slack(period float64) float64 {
	return period - ea.Setup - ea.Arrival
}

// TimingReport holds the per-endpoint view of one analysis.
type TimingReport struct {
	Mode      Mode
	Period    float64
	Endpoints []EndpointArrival // sorted worst-first
}

// Violations returns the endpoints with negative slack.
func (tr *TimingReport) Violations() []EndpointArrival {
	var out []EndpointArrival
	for _, ep := range tr.Endpoints {
		if ep.Slack(tr.Period) < 0 {
			out = append(out, ep)
		}
	}
	return out
}

// WNS returns the worst negative slack (or the smallest slack when none
// is negative).
func (tr *TimingReport) WNS() float64 {
	if len(tr.Endpoints) == 0 {
		return math.Inf(1)
	}
	return tr.Endpoints[0].Slack(tr.Period)
}

// TNS returns the total negative slack.
func (tr *TimingReport) TNS() float64 {
	t := 0.0
	for _, ep := range tr.Endpoints {
		if s := ep.Slack(tr.Period); s < 0 {
			t += s
		}
	}
	return t
}

// Render writes the top-k endpoints as a classic report_timing summary.
func (tr *TimingReport) Render(w io.Writer, k int) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timing report — %s analysis, clock period %.3f ns\n", tr.Mode, tr.Period*1e9)
	fmt.Fprintf(&sb, "WNS %.3f ns, TNS %.3f ns, %d endpoints, %d violated\n",
		tr.WNS()*1e9, tr.TNS()*1e9, len(tr.Endpoints), len(tr.Violations()))
	fmt.Fprintf(&sb, "%-20s %-6s %-5s %12s %12s %9s\n", "Endpoint", "Kind", "Dir", "Arrival[ns]", "Slack[ns]", "Status")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 70))
	for i, ep := range tr.Endpoints {
		if i >= k {
			break
		}
		slack := ep.Slack(tr.Period)
		status := "MET"
		if slack < 0 {
			status = "VIOLATED"
		}
		fmt.Fprintf(&sb, "%-20s %-6s %-5s %12.3f %12.3f %9s\n",
			ep.Net, ep.Kind, ep.Dir, ep.Arrival*1e9, slack*1e9, status)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Report runs the configured analysis and returns the per-endpoint
// timing report for the given clock period.
func (e *Engine) Report(period float64) (*TimingReport, error) {
	if period <= 0 {
		return nil, fmt.Errorf("core: clock period must be positive, got %g", period)
	}
	// Run the analysis for its reported pass state: the same passes Run
	// executes, without assembling a Result.
	st, _, err := e.analyze(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &TimingReport{Mode: e.opts.Mode, Period: period}
	for _, ep := range e.endpoints {
		s := &st[ep.net-1]
		if !s.calculated {
			continue
		}
		worst := math.Inf(-1)
		dir := dirRise
		for d := 0; d < 2; d++ {
			if a := s.arrival[d]; !math.IsInf(a, -1) && a > worst {
				worst = a
				dir = d
			}
		}
		if math.IsInf(worst, -1) {
			continue
		}
		n := e.endpointName(ep)
		ea := EndpointArrival{
			Net:     n.Net,
			Kind:    n.Kind,
			Cell:    n.Cell,
			Arrival: worst + ep.extra,
			Dir:     dirOf(dir),
		}
		if ep.cell != netlist.NoCell {
			ea.Setup = ccc.DFFSetup()
		}
		rep.Endpoints = append(rep.Endpoints, ea)
	}
	sort.Slice(rep.Endpoints, func(i, j int) bool {
		si := rep.Endpoints[i].Slack(period)
		sj := rep.Endpoints[j].Slack(period)
		if si != sj {
			return si < sj
		}
		return rep.Endpoints[i].Net < rep.Endpoints[j].Net
	})
	return rep, nil
}
