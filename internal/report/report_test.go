package report

import (
	"strings"
	"testing"
	"time"
)

func sampleTable() *Table {
	return &Table{
		Title: "Table X: sample",
		Rows: []Row{
			{Method: "Best case", DelayNs: 10.0, Runtime: 2 * time.Second, Passes: 1, Evaluations: 100},
			{Method: "Static doubled", DelayNs: 11.5, Runtime: 2 * time.Second, Passes: 1, Evaluations: 100},
			{Method: "Worst case", DelayNs: 13.0, Runtime: 2 * time.Second, Passes: 1, Evaluations: 100},
			{Method: "One step", DelayNs: 12.2, Runtime: 4 * time.Second, Passes: 1, Evaluations: 200},
			{Method: "Iterative", DelayNs: 11.8, Runtime: 9 * time.Second, Passes: 3, Evaluations: 500},
		},
		GoldenNs:      11.9,
		GoldenQuietNs: 10.1,
		Notes:         []string{"wire delay 0.2 ns"},
	}
}

func TestRenderContainsAllRows(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Best case", "Static doubled", "Worst case", "One step", "Iterative", "Golden sim", "wire delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "| Iterative | 11.800 |") {
		t.Errorf("markdown row missing:\n%s", out)
	}
	if !strings.Contains(out, "### Table X: sample") {
		t.Error("markdown heading missing")
	}
}

func TestCheckShapeClean(t *testing.T) {
	if v := sampleTable().CheckShape(0.02); len(v) != 0 {
		t.Errorf("clean table reported violations: %v", v)
	}
}

func TestCheckShapeViolations(t *testing.T) {
	tab := sampleTable()
	tab.Rows[0].DelayNs = 14 // best above everything
	v := tab.CheckShape(0.02)
	if len(v) == 0 {
		t.Error("expected violations")
	}
	// One-step above worst.
	tab2 := sampleTable()
	tab2.Rows[3].DelayNs = 14
	if v := tab2.CheckShape(0.02); len(v) == 0 {
		t.Error("expected one-step violation")
	}
	// Golden above worst bound.
	tab3 := sampleTable()
	tab3.GoldenNs = 15
	if v := tab3.CheckShape(0.02); len(v) == 0 {
		t.Error("expected golden violation")
	}
}

// TestCheckShapeIterativeAboveOneStep: iterative ≤ one-step holds
// exactly, so even a 0.1% excess — well inside tol — is a violation.
func TestCheckShapeIterativeAboveOneStep(t *testing.T) {
	tab := sampleTable()
	tab.Rows[4].DelayNs = tab.Rows[3].DelayNs * 1.001
	v := tab.CheckShape(0.02)
	if len(v) != 1 || !strings.Contains(v[0], "iterative") {
		t.Errorf("iterative 0.1%% above one-step: violations %v, want one iterative violation", v)
	}
}

func TestCheckShapeMissingRowsTolerated(t *testing.T) {
	tab := &Table{Rows: []Row{{Method: "Best case", DelayNs: 1}}}
	if v := tab.CheckShape(0.02); len(v) != 0 {
		t.Errorf("partial table should not report violations: %v", v)
	}
}
