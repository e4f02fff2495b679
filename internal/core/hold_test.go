package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"xtalksta/internal/netlist"
)

func TestReportHoldBasics(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 901)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ReportHold(50e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Endpoints) == 0 {
		t.Fatal("no endpoints")
	}
	for i := 1; i < len(rep.Endpoints); i++ {
		if rep.Endpoints[i].Slack() < rep.Endpoints[i-1].Slack() {
			t.Fatal("not sorted by slack")
		}
	}
	// Every hold arrival must be at most the corresponding setup
	// arrival (min ≤ max).
	setup, err := eng.Report(100e-9)
	if err != nil {
		t.Fatal(err)
	}
	setupArr := map[string]float64{}
	for _, ep := range setup.Endpoints {
		setupArr[ep.Net] = ep.Arrival
	}
	for _, ep := range rep.Endpoints {
		if max, ok := setupArr[ep.Net]; ok && ep.Arrival > max+1e-12 {
			t.Errorf("endpoint %s: earliest %v after latest %v", ep.Net, ep.Arrival, max)
		}
	}
	// With DFF launches at clk-to-Q (~300 ps) plus a gate, a 50 ps hold
	// is comfortably met in this circuit.
	if v := rep.Violations(); len(v) != 0 {
		t.Errorf("unexpected hold violations: %d (worst %v)", len(v), rep.WorstSlack())
	}
	// An absurd hold requirement must produce violations.
	bad, err := eng.ReportHold(20e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad.Violations()) == 0 {
		t.Error("20 ns hold should violate everywhere")
	}
	if bad.WorstSlack() >= 0 {
		t.Error("worst slack should be negative")
	}
}

func TestReportHoldValidation(t *testing.T) {
	c, calc := buildExtracted(t, 100, 8, 6, 902)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReportHold(-1); err == nil {
		t.Error("negative hold time must error")
	}
}

// TestReportHoldArrivalsAre50Percent: HoldEndpoint.Arrival is the
// earliest 50% arrival, the same measure as the setup report's. Each
// endpoint must report, Float64bits-exactly, the smaller of its two
// min-pass 50% arrivals plus the endpoint's wire delay — not the
// transition start (arrival − slew/2).
func TestReportHoldArrivalsAre50Percent(t *testing.T) {
	c, calc := buildExtracted(t, 140, 12, 7, 901)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ReportHold(50e-12)
	if err != nil {
		t.Fatal(err)
	}
	early, _, err := eng.minSweep()
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, ep := range eng.endpoints {
		arr, dir := math.Inf(1), dirRise
		for d := 0; d < 2; d++ {
			if a := early[ep.net-1][d]; a < arr {
				arr, dir = a, d
			}
		}
		if math.IsInf(arr, 1) {
			continue
		}
		kind := "PO"
		if ep.cell != netlist.NoCell {
			kind = "DFF/D"
		}
		want = append(want, fmt.Sprintf("%s %s %s %016x", c.Net(ep.net).Name, kind, dirOf(dir), math.Float64bits(arr+ep.extra)))
	}
	for _, he := range rep.Endpoints {
		got = append(got, fmt.Sprintf("%s %s %s %016x", he.Net, he.Kind, he.Dir, math.Float64bits(he.Arrival)))
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d hold endpoints, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hold endpoint %q, want %q (earliest 50%% arrival)", got[i], want[i])
		}
	}
}

func TestMinPassEarliestBeforeLatest(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 302)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, slews, err := eng.minSweep()
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.sweep(OneStep, nil, eng.newFullPass())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range arrivals {
		for d := 0; d < 2; d++ {
			if math.IsInf(arrivals[i][d], 1) || math.IsInf(st[i].arrival[d], -1) {
				continue
			}
			checked++
			// Earliest transition start must precede the latest 50%
			// arrival (a start precedes its own 50% point, and min ≤ max).
			if start := arrivals[i][d] - slews[i][d]/2; start > st[i].arrival[d]+1e-15 {
				t.Errorf("net %s %s: earliest start %v after latest arrival %v",
					c.Net(netlist.NetID(i+1)).Name, dirOf(d), start, st[i].arrival[d])
			}
		}
	}
	if checked < 50 {
		t.Errorf("too few comparable points: %d", checked)
	}
}
