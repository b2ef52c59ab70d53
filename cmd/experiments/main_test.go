package main

import (
	"bytes"
	"strings"
	"testing"
)

// A scale that is not positive is refused before any experiment runs;
// the library's zero-value default (expt.Options) is no flag value.
func TestRefusesNonPositiveScale(t *testing.T) {
	for _, scale := range []string{"0", "-1"} {
		var out bytes.Buffer
		err := run([]string{"-run", "table1", "-scale", scale}, &out)
		if err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("-scale %s: err %v, want a refusal", scale, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-scale %s: an experiment ran:\n%s", scale, out.String())
		}
	}
}

func TestListNamesConvergence(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "convergence") {
		t.Fatalf("-list does not name convergence:\n%s", out.String())
	}
}
