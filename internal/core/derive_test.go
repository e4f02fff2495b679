package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
	"xtalksta/internal/incremental"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

// extractedPreset generates, lowers, places, routes and extracts a
// paper preset the way the facade does.
func extractedPreset(t *testing.T, p circuitgen.Preset, scale float64) (*netlist.Circuit, *delaycalc.Calculator) {
	t.Helper()
	c, err := circuitgen.GeneratePreset(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	proc := device.Generic05um()
	siz := ccc.DefaultSizing(proc)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(proc, ccc.PinCapFunc(c, proc, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	m, err := coupling.NewModel(proc.VDD, proc.VthModel)
	if err != nil {
		t.Fatal(err)
	}
	return c, delaycalc.New(device.NewLibrary(proc, 0), siz, m, delaycalc.Options{})
}

// sameSnapshot requires a derived snapshot to equal a from-scratch
// Compile in every field but the revision stamp.
func sameSnapshot(t *testing.T, ctx string, derived, want *core.Compiled) {
	t.Helper()
	if derived == nil {
		t.Fatalf("%s: Derive fell back; want a derived snapshot", ctx)
	}
	got := *derived
	got.SetRevision(want.Revision())
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s: derived snapshot differs from Compile of the same circuit and options", ctx)
	}
}

// TestDeriveMatchesCompile: on both parity presets, a chain of random
// edit batches covering all seven edit kinds is applied revision by
// revision, each revision's snapshot derived from the previous one's
// (from batch 2 on, a derived parent). Every derived snapshot must equal
// Compile of the same circuit and options, so the analyses that reuse
// it — Reanalyze and every later Analyze of the revision — see exactly
// the snapshot a from-scratch compile gives. A derivation across the
// last two revisions (their seeds' union) must too, and a change of the
// compile key — another POCap or PiModel — must fall back.
func TestDeriveMatchesCompile(t *testing.T) {
	for _, preset := range []circuitgen.Preset{circuitgen.S35932Like, circuitgen.S38417Like} {
		t.Run(string(preset), func(t *testing.T) {
			c, calc := extractedPreset(t, preset, 0.02)
			var opts core.Options
			cd, err := core.Compile(c, calc, opts)
			if err != nil {
				t.Fatal(err)
			}
			type revision struct {
				c     *netlist.Circuit
				cd    *core.Compiled
				seeds []netlist.NetID
			}
			revs := []revision{{c: c, cd: cd}}
			kinds := make(map[incremental.Op]bool)
			rng := rand.New(rand.NewSource(3))
			for b := 1; b <= 8; b++ {
				prev := revs[len(revs)-1]
				batch := incremental.RandomBatch(prev.c, rng, 5)
				next, seeds, err := incremental.Apply(prev.c, batch, nil, nil)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				for _, ed := range batch {
					kinds[ed.Op] = true
				}
				derived, err := prev.cd.Derive(next, opts, seedMask(next, seeds))
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Compile(next, calc, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, batch[0].String(), derived, want)
				revs = append(revs, revision{c: next, cd: derived, seeds: seeds})
			}
			for _, op := range []incremental.Op{incremental.OpScaleCoupling, incremental.OpSetCoupling,
				incremental.OpAddCoupling, incremental.OpRemoveCoupling, incremental.OpDecoupleNet,
				incremental.OpResizeCell, incremental.OpSetInputSlew} {
				if !kinds[op] {
					t.Fatalf("the edit chain has no %s edit", op)
				}
			}

			// Two revisions at once, from the snapshot two back.
			last := revs[len(revs)-1]
			want, err := core.Compile(last.c, calc, opts)
			if err != nil {
				t.Fatal(err)
			}
			union := append(append([]netlist.NetID(nil), revs[len(revs)-2].seeds...), last.seeds...)
			derived, err := revs[len(revs)-3].cd.Derive(last.c, opts, seedMask(last.c, union))
			if err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, "seed union", derived, want)

			// A compile-key change falls back.
			mask := seedMask(last.c, last.seeds)
			parent := revs[len(revs)-2].cd
			for name, o := range map[string]core.Options{
				"POCap":   {POCap: 2 * 30e-15},
				"PiModel": {PiModel: true},
			} {
				if got, err := parent.Derive(last.c, o, mask); got != nil || err != nil {
					t.Errorf("%s change: Derive returned (%v, %v), want a fallback", name, got != nil, err)
				}
			}
		})
	}
}

// seedMask flags the seeds by NetID−1.
func seedMask(c *netlist.Circuit, seeds []netlist.NetID) []bool {
	m := make([]bool, len(c.Nets))
	for _, id := range seeds {
		m[id-1] = true
	}
	return m
}
