package expt

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("%d experiments, want 14", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := ByID("fig6a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestOptionsScaleDefault(t *testing.T) {
	if (Options{}).scale() != 1.0 {
		t.Fatal("zero scale should default to 1")
	}
	if (Options{Scale: 0.5}).scale() != 0.5 {
		t.Fatal("explicit scale ignored")
	}
}

// The experiment drivers at a tiny scale: each must run end to end and
// produce a non-trivial report. (Full-scale output is exercised by
// cmd/experiments and recorded in EXPERIMENTS.md.)
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	// fig9 sweeps five node counts over six datasets — the heaviest driver;
	// keep the scale very small.
	scales := map[string]float64{
		"table1": 0.02, "fig3": 0.02, "fig6a": 0.02, "fig6b": 0.02,
		"fig7": 0.02, "fig8": 0.02, "fig9": 0.01, "table2": 0.02,
		"table3": 0.02, "theory": 0.02, "balance": 0.02, "ablation": 0.02, "whatif": 0.02,
		"convergence": 0.02,
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Options{Out: &buf, Scale: scales[e.ID]}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("suspiciously short report:\n%s", out)
			}
			if !strings.Contains(out, "---") && !strings.Contains(out, "—") {
				t.Fatalf("no table rendered:\n%s", out)
			}
		})
	}
}
