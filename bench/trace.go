package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dedukt/internal/obs"
)

// benchSpan is one interval the benchmark itself recorded around a set-up
// step, a repetition or a layer probe.
type benchSpan struct {
	ID, Parent int // Parent is 0 for a root span
	Name       string
	Start, End time.Duration // offsets from the tracer epoch
}

// tracer keeps the benchmark's spans in memory until the run ends. Spans
// are opened and closed on the main goroutine only, so the open ones form a
// stack and the innermost is the parent of the next.
type tracer struct {
	workload string
	label    string // which of the run's two processes recorded the spans
	epoch    time.Time
	spans    []benchSpan
	open     []int              // indexes into spans
	pipeline []*pipelineCapture // recorders of the traced repetitions
}

// pipelineCapture is one traced repetition's obs.Recorder.
type pipelineCapture struct {
	label string
	rec   *obs.Recorder
}

func newTracer(workload, label string) *tracer {
	return &tracer{workload: workload, label: label, epoch: time.Now()}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) (end func()) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, benchSpan{ID: idx + 1, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) capture(label string, rec *obs.Recorder) {
	t.pipeline = append(t.pipeline, &pipelineCapture{label: label, rec: rec})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// events renders the benchmark's spans (pid 1) and each traced repetition's
// pipeline spans (pid 2, 3, ...; one thread per rank) on one timeline.
func (t *tracer) events() []chromeEvent {
	ev := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + t.workload + " " + t.label}}}
	for _, s := range t.spans {
		dur := usec(s.End - s.Start)
		ev = append(ev, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Ts: usec(s.Start), Dur: &dur,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload},
		})
	}
	for i, pc := range t.pipeline {
		pid := 2 + i
		ev = append(ev, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": pc.label}})
		shift := pc.rec.Epoch().Sub(t.epoch)
		for _, s := range pc.rec.Spans() {
			dur := usec(s.Dur)
			ev = append(ev, chromeEvent{
				Name: s.Phase, Ph: "X", Pid: pid, Tid: s.Rank, Ts: usec(shift + s.Start), Dur: &dur,
				Args: map[string]any{"round": s.Round, "modeled_us": usec(s.Modeled), "items": s.Items, "workload": t.workload},
			})
		}
	}
	return ev
}

// write stores the Chrome trace (loadable in Perfetto or chrome://tracing).
func (t *tracer) write(path string) error {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{t.events(), "ms"}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
