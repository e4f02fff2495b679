package incremental

import (
	"os"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

// fuzzDesign generates, lowers, places, routes and extracts s35932 at
// scale 0.05, the design testdata/eco_clock_victim.json edits.
func fuzzDesign(f *testing.F) *netlist.Circuit {
	f.Helper()
	c, err := circuitgen.GeneratePreset(circuitgen.S35932Like, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		f.Fatal(err)
	}
	proc := device.Generic05um()
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Extract(proc, ccc.PinCapFunc(c, proc, ccc.DefaultSizing(proc)), 30e-15); err != nil {
		f.Fatal(err)
	}
	return c
}

// FuzzDecodeBatches feeds arbitrary bytes through the `-eco` file
// decoder and replays whatever decodes, batch by batch, on a generated
// design, each accepted batch editing the previous one's copy. Nothing may panic; a decode error must name the
// input, and a rejected batch is an ordinary error. The seed corpus is
// the checked-in replay file and the misspelled-field cases of
// TestLoadBatches, so `go test` runs them every time.
func FuzzDecodeBatches(f *testing.F) {
	replay, err := os.ReadFile("../../testdata/eco_clock_victim.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replay)
	f.Add([]byte(`[[{"op":"scale_coupling","a":"CLKB1","b":"Q48","factor":1.6}]]`))
	f.Add([]byte(`[{"op":"scale_coupling","a":"CLKB1","b":"Q48","factor":1.6}]`))
	c := fuzzDesign(f)
	const name = "fuzz-input.json"
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := decodeBatches(name, data)
		if err != nil {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("decode error %q does not name the input", err)
			}
			return
		}
		edited := c
		for _, batch := range batches {
			if next, _, err := Apply(edited, batch, nil, nil); err == nil {
				edited = next
			}
		}
	})
}
