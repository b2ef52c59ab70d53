package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dedukt/internal/obs"
)

// writeDumps saves a two-rank run's recorder dump and one request span's
// tracer dump, the two kinds of input trace-join takes, and returns their
// paths.
func writeDumps(t *testing.T, dir string) []string {
	t.Helper()
	rec := obs.NewRecorder(2)
	for rank := 0; rank < 2; rank++ {
		rec.Begin(rank, 0, obs.PhaseCount).End(time.Microsecond, 3)
		rec.Instant(rank, 0, obs.EvCkpt)
	}
	tr := obs.NewTracer("kload", 1)
	span := tr.StartRoot("request", "client")
	span.End()

	paths := []string{filepath.Join(dir, "run.json"), filepath.Join(dir, "kload.json")}
	for i, d := range []obs.TraceDump{rec.Dump(), tr.Dump()} {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestTraceJoinRunAndRequests(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "joined.json")
	if err := runTraceJoin(append([]string{"-o", out}, writeDumps(t, dir)...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("joined trace is not JSON: %v", err)
	}
	procs := map[int]any{}
	phs := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"]
		}
		phs[ev.Ph]++
	}
	if procs[1] != "dedukt" || procs[2] != "kload" {
		t.Fatalf("processes %v, want dedukt then kload", procs)
	}
	// Two count spans and the request span; one checkpoint instant a rank.
	if phs["X"] != 3 || phs["i"] != 2 {
		t.Fatalf("events by ph %v, want 3 X and 2 i", phs)
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left beside the output: %v", err)
	}
}
