package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xtalksta"
)

// TestWriteTableJSON: the -json file of a default table-mode run (tier-0
// on, as the CLI's flag defaults set it) must hold the circuit's counts
// and one row per mode in table order, each carrying the table's delay
// bit for bit, and nothing else.
func TestWriteTableJSON(t *testing.T) {
	d, title, err := buildDesign("", "", "s35932", 0.02, 0, 0, 12, 1, xtalksta.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	table, err := d.PaperTableOpts(title, false, xtalksta.AnalysisOptions{Tier0: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := writeTableJSON(path, title, st, table); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatalf("-json output is not a JSON object: %v", err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "cells circuit dffs logic_depth nets rows"; strings.Join(got, " ") != want {
		t.Errorf("top-level keys %v, want %s", got, want)
	}

	var out struct {
		Circuit string `json:"circuit"`
		Cells   int    `json:"cells"`
		DFFs    int    `json:"dffs"`
		Nets    int    `json:"nets"`
		Depth   int    `json:"logic_depth"`
		Rows    []struct {
			Method  string  `json:"method"`
			DelayNs float64 `json:"delay_ns"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Circuit != title || out.Cells != st.Cells || out.DFFs != st.DFFs ||
		out.Nets != st.Nets || out.Depth != st.LogicDepth {
		t.Errorf("circuit block %q %d/%d/%d/%d, want %q %d/%d/%d/%d", out.Circuit,
			out.Cells, out.DFFs, out.Nets, out.Depth, title, st.Cells, st.DFFs, st.Nets, st.LogicDepth)
	}
	modes := xtalksta.Modes()
	if len(out.Rows) != len(modes) {
		t.Fatalf("%d rows, want %d", len(out.Rows), len(modes))
	}
	for i, m := range modes {
		r := out.Rows[i]
		if r.Method != m.String() {
			t.Errorf("row %d is %q, want %q", i, r.Method, m)
		}
		if math.Float64bits(r.DelayNs) != math.Float64bits(table.Rows[i].DelayNs) {
			t.Errorf("%s: delay_ns %v, table %v", m, r.DelayNs, table.Rows[i].DelayNs)
		}
	}
}

// TestCompareECO: -eco-verify must catch an incremental result whose
// longest path and pass count match the from-scratch run but whose
// per-net state does not, and name the first differing net and
// direction.
func TestCompareECO(t *testing.T) {
	d, _, err := buildDesign("", "", "s35932", 0.02, 0, 0, 12, 1, xtalksta.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	opts := xtalksta.AnalysisOptions{Mode: xtalksta.Iterative}
	full, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareECO(d.Circuit, full, full); err != nil {
		t.Fatalf("a result differs from itself: %v", err)
	}
	// Double the slew of the circuit's first net, a primary input.
	c := d.Circuit
	if c.PIs[0] != 1 {
		t.Fatalf("first primary input is net %d, want 1", c.PIs[0])
	}
	pi := c.Net(1).Name
	if err := d.Edit(xtalksta.SetInputSlew(pi, 2*full.Replay.FinalSlews()[0][0])); err != nil {
		t.Fatal(err)
	}
	edited, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same longest path and pass count, different per-net state.
	stale := *edited
	stale.LongestPath, stale.Passes = full.LongestPath, full.Passes
	err = compareECO(c, full, &stale)
	if want := "net " + pi + " rise slew:"; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("state difference reported as %v, want %q...", err, want)
	}
	stale = *full
	stale.Passes++
	if err := compareECO(c, full, &stale); err == nil || !strings.Contains(err.Error(), "passes") {
		t.Errorf("pass-count difference reported as %v", err)
	}
}
