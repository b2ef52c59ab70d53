package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
)

// traceEvent is one entry of the Chrome trace-event format (the JSON array
// flavor Perfetto and chrome://tracing load). Fields follow the Trace Event
// Format spec: ph "M" = metadata, "X" = complete span, "i" = instant.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds since trace origin
	Dur  *float64       `json:"dur,omitempty"` // microseconds, complete events only
	S    string         `json:"s,omitempty"`   // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Dump converts the recorded run into the TraceDump JoinTraces reads: one
// record per span (name = phase, thread "rank N", args round, modeled_us
// and, when nonzero, items) and one "i" record per instant (args round).
// Times are unix nanoseconds, like a Tracer's. A nil recorder dumps no
// records.
func (r *Recorder) Dump() TraceDump {
	if r == nil {
		return TraceDump{Spans: []ReqSpan{}}
	}
	spans, instants := r.Spans(), r.Instants()
	d := TraceDump{Process: "dedukt", Spans: make([]ReqSpan, 0, len(spans)+len(instants))}
	epoch := r.epoch.UnixNano()
	for _, s := range spans {
		args := map[string]float64{"round": float64(s.Round), "modeled_us": float64(s.Modeled) / 1e3}
		if s.Items > 0 {
			args["items"] = float64(s.Items)
		}
		d.Spans = append(d.Spans, ReqSpan{
			Name: s.Phase, Tid: rankThread(s.Rank),
			StartNS: epoch + int64(s.Start), DurNS: int64(s.Dur), Args: args,
		})
	}
	for _, i := range instants {
		d.Spans = append(d.Spans, ReqSpan{
			Name: i.Name, Ph: "i", Tid: rankThread(i.Rank),
			StartNS: epoch + int64(i.At), Args: map[string]float64{"round": float64(i.Round)},
		})
	}
	return d
}

func rankThread(rank int) string { return "rank " + strconv.Itoa(rank) }

// WriteTrace exports every recorded span and instant as Chrome trace-event
// JSON, one trace thread per rank, so both the Go wall timeline and the
// modeled timeline are inspectable in Perfetto. A nil recorder writes a
// valid empty trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	return JoinTraces(w, []TraceDump{r.Dump()})
}

// JoinTraces merges span dumps — a Recorder's run, or each process's
// request spans — into one Chrome trace-event JSON document
// (Perfetto-loadable): pid = dump order from 1, tid = the record's thread
// within that process, numbered in the order threadLess gives ("rank 2"
// before "rank 10"). Every event's args carry the process name, the
// trace/span/parent IDs a record has, and its string and numeric
// annotations, so a single request can be filtered across processes by
// its trace ID. Timestamps are re-based to the earliest record so the
// trace starts at zero. A dump that names a process keeps its process row
// even with no records (an idle replica still shows); a dump with neither
// a process nor records — a nil Recorder's — adds no events.
func JoinTraces(w io.Writer, dumps []TraceDump) error {
	var origin int64
	first := true
	for _, d := range dumps {
		for _, sp := range d.Spans {
			if first || sp.StartNS < origin {
				origin = sp.StartNS
				first = false
			}
		}
	}

	f := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	var body []traceEvent
	for pi, d := range dumps {
		if d.Process == "" && len(d.Spans) == 0 {
			continue
		}
		pid := pi + 1
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": d.Process},
		})
		names := map[string]bool{}
		for _, sp := range d.Spans {
			names[sp.Tid] = true
		}
		ordered := make([]string, 0, len(names))
		for n := range names {
			ordered = append(ordered, n)
		}
		sort.Slice(ordered, func(a, b int) bool { return threadLess(ordered[a], ordered[b]) })
		tids := make(map[string]int, len(ordered))
		for i, n := range ordered {
			tids[n] = i
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i,
				Args: map[string]any{"name": threadName(n)},
			})
		}
		for _, sp := range d.Spans {
			args := map[string]any{"proc": d.Process}
			for _, id := range [...][2]string{{"trace", sp.Trace}, {"span", sp.Span}, {"parent", sp.Parent}} {
				if id[1] != "" {
					args[id[0]] = id[1]
				}
			}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			for k, v := range sp.Args {
				args[k] = v
			}
			ev := traceEvent{
				Name: sp.Name, Ph: "X", Pid: pid, Tid: tids[sp.Tid],
				Ts: float64(sp.StartNS-origin) / 1e3, Args: args,
			}
			if sp.Ph == "i" {
				ev.Ph, ev.S = "i", "t"
			} else {
				dur := float64(sp.DurNS) / 1e3
				ev.Dur = &dur
			}
			body = append(body, ev)
		}
	}
	// Deterministic order: by timestamp, longer spans first at equal start
	// so enclosing spans precede nested ones, then by pid/tid.
	sort.SliceStable(body, func(a, b int) bool {
		if body[a].Ts != body[b].Ts {
			return body[a].Ts < body[b].Ts
		}
		da, db := 0.0, 0.0
		if body[a].Dur != nil {
			da = *body[a].Dur
		}
		if body[b].Dur != nil {
			db = *body[b].Dur
		}
		if da != db {
			return da > db
		}
		if body[a].Pid != body[b].Pid {
			return body[a].Pid < body[b].Pid
		}
		return body[a].Tid < body[b].Tid
	})
	f.TraceEvents = append(f.TraceEvents, body...)
	return json.NewEncoder(w).Encode(f)
}

func threadName(tid string) string {
	if tid == "" {
		return "main"
	}
	return tid
}

// threadLess orders thread names by their prefix before a trailing
// number, then by that number (a name with none first), then by the whole
// name. Each key is a total order, so the tuple is one too: "rank 9" <
// "rank 10" < "rank 1x", and "a1" and "a01" keep one order from run to run.
func threadLess(a, b string) bool {
	pa, na := splitNumber(a)
	pb, nb := splitNumber(b)
	if pa != pb {
		return pa < pb
	}
	if len(na) != len(nb) {
		return len(na) < len(nb)
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// splitNumber splits s into a prefix and the decimal digits ending it,
// leading zeros dropped, so digit strings compare as numbers of any length
// by (length, text).
func splitNumber(s string) (prefix, digits string) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	return s[:i], strings.TrimLeft(s[i:], "0")
}
