package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedRecorder fabricates a recorder with deterministic spans and instants
// (bypassing the wall clock) so the trace export can be golden-tested
// byte-for-byte.
func fixedRecorder() *Recorder {
	rec := NewRecorder(2)
	add := func(rank, round int, phase string, start, dur, modeled time.Duration, items uint64) {
		sh := rec.shard(rank)
		sh.spans = append(sh.spans, Span{
			Rank: rank, Round: round, Phase: phase,
			Start: start, Dur: dur, Modeled: modeled, Items: items,
		})
	}
	add(0, 0, PhaseParse, 0, 100*time.Microsecond, 40*time.Microsecond, 10)
	add(0, 0, PhaseExchange, 100*time.Microsecond, 300*time.Microsecond, 80*time.Microsecond, 10)
	add(0, 0, PhaseRetry, 250*time.Microsecond, 100*time.Microsecond, 0, 10)
	add(0, 0, PhaseCount, 400*time.Microsecond, 50*time.Microsecond, 20*time.Microsecond, 10)
	add(1, 0, PhaseParse, 0, 120*time.Microsecond, 40*time.Microsecond, 14)
	add(1, 0, PhaseExchange, 120*time.Microsecond, 280*time.Microsecond, 80*time.Microsecond, 14)
	add(1, 0, PhaseCount, 400*time.Microsecond, 70*time.Microsecond, 20*time.Microsecond, 14)
	sh := rec.shard(1)
	sh.instants = append(sh.instants, Instant{Rank: 1, Round: 0, Name: EvDrop, At: 150 * time.Microsecond})
	sh.instants = append(sh.instants, Instant{Rank: 1, Round: 0, Name: EvRetry, At: 240 * time.Microsecond})
	return rec
}

func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedRecorder().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace drifted from golden file (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTraceShape decodes the export and checks the structural invariants the
// Perfetto/chrome://tracing loader relies on.
func TestTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedRecorder().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var meta, spans, instants int
	lastTs := -1.0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			continue
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %q missing dur", ev.Name)
			}
			if _, ok := ev.Args["round"]; !ok {
				t.Fatalf("span %q missing round arg", ev.Name)
			}
			if _, ok := ev.Args["modeled_us"]; !ok {
				t.Fatalf("span %q missing modeled_us arg", ev.Name)
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("instant %q scope = %q, want t", ev.Name, ev.S)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Ts < lastTs {
			t.Fatalf("events not time-ordered: %v after %v", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
	}
	if meta != 3 { // process_name + 2 thread_names
		t.Fatalf("metadata events = %d, want 3", meta)
	}
	if spans != 7 || instants != 2 {
		t.Fatalf("spans=%d instants=%d, want 7, 2", spans, instants)
	}
}

func TestWriteTraceNil(t *testing.T) {
	var rec *Recorder
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil-recorder trace is not valid JSON: %v", err)
	}
	if evs, ok := f["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("nil-recorder trace events = %v, want empty array", f["traceEvents"])
	}
}

// TestJoinTracesRecorderRanks sends a 12-rank run through Dump and
// JoinTraces: threads are numbered in rank order ("rank 10" after
// "rank 9"), instants stay thread-scoped "i" events, and the span args
// stay JSON numbers.
func TestJoinTracesRecorderRanks(t *testing.T) {
	const ranks = 12
	rec := NewRecorder(ranks)
	for rank := ranks - 1; rank >= 0; rank-- {
		sh := rec.shard(rank)
		at := time.Duration(rank) * time.Microsecond
		sh.spans = append(sh.spans, Span{
			Rank: rank, Round: 2, Phase: PhaseCount,
			Start: at, Dur: 5 * time.Microsecond, Modeled: 1500 * time.Nanosecond, Items: uint64(rank + 1),
		})
		sh.instants = append(sh.instants, Instant{Rank: rank, Round: 2, Name: EvCkpt, At: at + time.Microsecond})
	}
	var buf bytes.Buffer
	if err := JoinTraces(&buf, []TraceDump{rec.Dump()}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	threads := 0
	var spans, instants int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			if want := "rank " + strconv.Itoa(ev.Tid); ev.Args["name"] != want {
				t.Errorf("tid %d is %v, want %s", ev.Tid, ev.Args["name"], want)
			}
			threads++
		case ev.Ph == "X":
			spans++
			// Rank r's span starts r µs after rank 0's and counts r+1 items.
			if want := float64(ev.Tid); ev.Ts != want || ev.Args["items"] != want+1 {
				t.Errorf("span on tid %d at ts %v with items %v: not rank %d's", ev.Tid, ev.Ts, ev.Args["items"], ev.Tid)
			}
			if ev.Args["round"] != 2.0 || ev.Args["modeled_us"] != 1.5 {
				t.Errorf("span args %v, want numeric round 2 and modeled_us 1.5", ev.Args)
			}
			if _, ok := ev.Args["trace"]; ok {
				t.Errorf("run span carries an empty trace id: %v", ev.Args)
			}
		case ev.Ph == "i":
			instants++
			if ev.S != "t" || ev.Name != EvCkpt || ev.Ts != float64(ev.Tid)+1 || ev.Args["round"] != 2.0 {
				t.Errorf("instant %+v, want thread-scoped %s on its rank at round 2", ev, EvCkpt)
			}
		}
	}
	if threads != ranks || spans != ranks || instants != ranks {
		t.Fatalf("threads=%d spans=%d instants=%d, want %d each", threads, spans, instants, ranks)
	}
}

// TestJoinTracesThreadOrder pins the thread order for names the rank rule
// alone leaves open: a number compares as a number only under the same
// prefix ("x1y" has none, so its prefix sorts after "x"), and names equal
// as numbers ("a1", "a01") fall back to the whole name, so the tids do not
// follow map iteration order from one join to the next.
func TestJoinTracesThreadOrder(t *testing.T) {
	want := []string{"a01", "a1", "a2", "x9", "x10", "x1y"}
	var d TraceDump
	d.Process = "p"
	for _, i := range []int{5, 1, 3, 0, 4, 2} {
		d.Spans = append(d.Spans, ReqSpan{Name: "s", Tid: want[i], StartNS: int64(i)})
	}
	for run := 0; run < 20; run++ {
		var buf bytes.Buffer
		if err := JoinTraces(&buf, []TraceDump{d}); err != nil {
			t.Fatal(err)
		}
		var f struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Tid  int            `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ev := range f.TraceEvents {
			if ev.Name == "thread_name" {
				if ev.Tid != len(got) {
					t.Fatalf("thread %v has tid %d, want %d", ev.Args["name"], ev.Tid, len(got))
				}
				got = append(got, ev.Args["name"].(string))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("join %d: threads %v, want %v", run, got, want)
		}
	}
}

// TestJoinTracesIdleProcess keeps the process row of a dump with a name and
// no records (an idle replica), so pids and process counts match the dumps
// given; only a nameless empty dump, a nil Recorder's, adds nothing.
func TestJoinTracesIdleProcess(t *testing.T) {
	busy := TraceDump{Process: "kproxy", Spans: []ReqSpan{{Name: "s", Tid: "http", DurNS: 1}}}
	idle := TraceDump{Process: "r1a"}
	var nilRec *Recorder
	var buf bytes.Buffer
	if err := JoinTraces(&buf, []TraceDump{busy, nilRec.Dump(), idle}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	procs := map[int]any{}
	for _, ev := range f.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"]
		}
	}
	if len(procs) != 2 || procs[1] != "kproxy" || procs[3] != "r1a" {
		t.Fatalf("process rows %v, want pid 1 kproxy and pid 3 r1a", procs)
	}
}
