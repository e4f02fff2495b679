package core

import (
	"math"
	"testing"
)

// TestEngineDeterministic: two engines over identically generated
// circuits must produce bit-identical results — a requirement for the
// benchmark harness and for the cache-key quantization to be
// reproducible.
func TestEngineDeterministic(t *testing.T) {
	run := func() (*Result, *Result) {
		c, calc := buildExtracted(t, 150, 12, 8, 501)
		one := runMode(t, c, calc, Options{Mode: OneStep})
		iter := runMode(t, c, calc, Options{Mode: Iterative})
		return one, iter
	}
	one1, iter1 := run()
	one2, iter2 := run()
	if one1.LongestPath != one2.LongestPath {
		t.Errorf("one-step not deterministic: %v vs %v", one1.LongestPath, one2.LongestPath)
	}
	if iter1.LongestPath != iter2.LongestPath {
		t.Errorf("iterative not deterministic: %v vs %v", iter1.LongestPath, iter2.LongestPath)
	}
	if len(one1.Path) != len(one2.Path) {
		t.Fatalf("paths differ in length: %d vs %d", len(one1.Path), len(one2.Path))
	}
	for i := range one1.Path {
		if one1.Path[i].Net != one2.Path[i].Net || one1.Path[i].Arrival != one2.Path[i].Arrival {
			t.Errorf("path step %d differs", i)
		}
	}
}

// TestQuietTimesBoundArrivals: on every calculated net, the quiescent
// time (upper bound of the last event's completion) must not precede
// the 50% arrival — the invariant the one-step classification relies
// on.
func TestQuietTimesBoundArrivals(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 502)
	eng, err := NewEngine(c, calc, Options{Mode: OneStep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.sweep(OneStep, nil, eng.newFullPass())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range st {
		if !st[i].calculated {
			continue
		}
		for d := 0; d < 2; d++ {
			if math.IsInf(st[i].arrival[d], -1) {
				continue
			}
			checked++
			if st[i].quiet[d] < st[i].arrival[d]-1e-15 {
				t.Errorf("net %d dir %d: quiet %v before arrival %v",
					i+1, d, st[i].quiet[d], st[i].arrival[d])
			}
		}
	}
	if checked < 100 {
		t.Errorf("too few nets checked: %d", checked)
	}
}

// TestEveryReachableNetCalculated: after a pass, every net fed from the
// launch points has a timing state — nothing silently drops out of the
// analysis.
func TestEveryReachableNetCalculated(t *testing.T) {
	c, calc := buildExtracted(t, 180, 16, 8, 503)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.sweep(BestCase, nil, eng.newFullPass())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nets {
		if n.Driver == -1 && !n.IsPI {
			continue
		}
		if !st[i].calculated {
			t.Errorf("net %s never calculated", n.Name)
		}
	}
}

func TestPathToArbitraryNet(t *testing.T) {
	c, calc := buildExtracted(t, 130, 10, 7, 504)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Query the worst endpoint: must match Run's own path.
	path, err := eng.PathTo(res.Endpoint.Net)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != len(res.Path) {
		t.Fatalf("PathTo length %d != Run path %d", len(path), len(res.Path))
	}
	for i := range path {
		if path[i].Net != res.Path[i].Net {
			t.Errorf("step %d: %s != %s", i, path[i].Net, res.Path[i].Net)
		}
	}
	// Query some mid-circuit net: a valid, arrival-monotone path.
	mid := res.Path[len(res.Path)/2].Net
	midPath, err := eng.PathTo(mid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(midPath); i++ {
		if midPath[i].Arrival < midPath[i-1].Arrival-1e-15 {
			t.Error("arrival not monotone in PathTo result")
		}
	}
	if midPath[len(midPath)-1].Net != mid {
		t.Error("path does not end at the queried net")
	}
	// Unknown net errors.
	if _, err := eng.PathTo("NOPE"); err == nil {
		t.Error("unknown net must error")
	}
}
