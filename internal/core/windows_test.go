package core

import (
	"math"
	"testing"

	"xtalksta/internal/netlist"
)

func TestWindowsTightensOrEqualsIterative(t *testing.T) {
	c, calc := buildExtracted(t, 180, 16, 8, 301)
	iter := runMode(t, c, calc, Options{Mode: Iterative})
	win := runMode(t, c, calc, Options{Mode: Iterative, Windows: true})
	if win.LongestPath <= 0 {
		t.Fatal("windows analysis produced no path")
	}
	tol := 0.03 * iter.LongestPath // cache quantization
	if win.LongestPath > iter.LongestPath+tol {
		t.Errorf("windows (%v) must not exceed plain iterative (%v)", win.LongestPath, iter.LongestPath)
	}
	// Still an upper bound above best case.
	best := runMode(t, c, calc, Options{Mode: BestCase})
	if win.LongestPath < best.LongestPath-tol {
		t.Errorf("windows (%v) fell below best case (%v)", win.LongestPath, best.LongestPath)
	}
}

func TestMinPassEarliestBeforeLatest(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 302)
	eng, err := NewEngine(c, calc, Options{Mode: Iterative, Windows: true})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, slews, _, err := eng.minSweep(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	early := startTimes(arrivals, slews)
	st, err := eng.sweep(OneStep, nil, eng.newFullPass())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range early {
		for d := 0; d < 2; d++ {
			if math.IsInf(early[i][d], 1) || math.IsInf(st[i].arrival[d], -1) {
				continue
			}
			checked++
			// Earliest transition start must precede the latest 50%
			// arrival (a start precedes its own 50% point, and min ≤ max).
			if early[i][d] > st[i].arrival[d]+1e-15 {
				t.Errorf("net %s %s: earliest start %v after latest arrival %v",
					c.Net(netlist.NetID(i+1)).Name, dirOf(d), early[i][d], st[i].arrival[d])
			}
		}
	}
	if checked < 50 {
		t.Errorf("too few comparable points: %d", checked)
	}
}

func TestWindowsOnSinglePassModesIsNoop(t *testing.T) {
	c, calc := buildExtracted(t, 120, 10, 6, 303)
	plain := runMode(t, c, calc, Options{Mode: OneStep})
	win := runMode(t, c, calc, Options{Mode: OneStep, Windows: true})
	if plain.LongestPath != win.LongestPath {
		t.Errorf("Windows must only affect Iterative: %v vs %v", plain.LongestPath, win.LongestPath)
	}
}
