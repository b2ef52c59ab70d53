package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// manifest is all a workload's child process is handed: the files set-up
// generated and the numbers its results are checked against. The seed stops
// in the parent; it is recorded here for the output, and the child draws
// nothing from it but the keys of a traced run's serving probes.
type manifest struct {
	Workload    string      `json:"workload"`
	Why         string      `json:"why"`
	Environment environment `json:"environment"`
	Dataset     string      `json:"dataset"`
	Reads       int         `json:"reads"`
	Bases       uint64      `json:"bases"`

	// Counting: the reads as FASTQ files (plain or gzip) and the serial
	// oracle's spectrum, reduced to what a repetition is checked against.
	ReadFiles []string       `json:"read_files,omitempty"`
	Oracle    *oracleSummary `json:"oracle,omitempty"`

	// Serving: the KCD a verified count exported, and one file of drawn keys
	// with the counts the database holds for them per client.
	KCD         string   `json:"kcd,omitempty"`
	ServedKmers int      `json:"served_kmers,omitempty"`
	KeyFiles    []string `json:"key_files,omitempty"`
}

func (m *manifest) path(outDir string) string {
	return filepath.Join(outDir, m.Workload+".manifest.json")
}

func (m *manifest) write(outDir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(m.path(outDir), data, 0o644)
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := new(manifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// childReport is the last line a child prints: everything it measured, for
// the parent to pick the contract's metrics from.
type childReport struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Notes      []string           `json:"notes,omitempty"` // timed samples behind the metrics
}

func reportOf(out *outcome) childReport {
	rep := childReport{Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics, Notes: out.notes}
	if out.firstErr != nil {
		rep.FirstError = out.firstErr.Error()
	}
	return rep
}

// childFunc runs the measured part of a workload from its manifest. The
// benchmark spawns a process; the tests call runChild in their own.
type childFunc func(manifestPath string, opt options) (*outcome, error)

// spawnChild runs the workload in a process of its own, so that its CPU time
// and peak RSS belong to the workload alone and not to set-up. It echoes what
// the child printed and reads the childReport off its last line.
func spawnChild(manifestPath string, opt options) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	args := []string{
		"-child", manifestPath,
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", opt.outDir,
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits until the child has ended
	body, last := cutLastLine(stdout)
	os.Stdout.Write(body)
	if err != nil {
		os.Stdout.Write(append(last, '\n'))
		return nil, fmt.Errorf("child process: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("child's last line is not a report: %w", err)
	}
	out := newOutcome()
	out.attempted, out.failed, out.metrics, out.notes = rep.Attempted, rep.Failed, rep.Metrics, rep.Notes
	if rep.FirstError != "" {
		out.firstErr = fmt.Errorf("%s", rep.FirstError)
	}
	return out, nil
}

// cutLastLine splits output into everything before its final line, and that
// line.
func cutLastLine(output []byte) (body, last []byte) {
	trimmed := bytes.TrimRight(output, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	return trimmed[:i+1], trimmed[i+1:]
}

// runWorkload is one run of one workload: set-up in this process, repeated
// and timed, then the measured part through child. setup_s is the median
// set-up plus what the child spent loading the generated files.
func runWorkload(spec workloadSpec, opt options, child childFunc) (*outcome, error) {
	workDir, err := os.MkdirTemp(opt.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	tr := newTracer(spec.Name, "set-up")
	prepare := prepareCounting
	if spec.Kind == serving {
		prepare = prepareServing
	}
	// Set-up repeats until half the run's seconds are spent on it, at least
	// twice: a cheap set-up gets more samples for its median.
	var m *manifest
	var setups []float64
	start := time.Now()
	for i := 0; i < opt.minSetups() || (!opt.quick && time.Since(start).Seconds() < opt.seconds/2); i++ {
		m = nil
		runtime.GC() // every set-up starts from a collected heap, free of the previous one's dataset
		end := tr.span(fmt.Sprintf("setup#%d", i))
		t0 := time.Now()
		m, err = prepare(spec, opt, tr, workDir)
		if err == nil {
			m.Workload, m.Why, m.Environment = spec.Name, spec.Why, currentEnvironment(opt.seed)
			err = m.write(opt.outDir)
		}
		setups = append(setups, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
	}
	if opt.trace {
		if err := tr.write(filepath.Join(opt.outDir, spec.Name+".setup.trace.json")); err != nil {
			return nil, err
		}
	}
	path := m.path(opt.outDir)
	m = nil
	debug.FreeOSMemory() // the child measures while this process only waits

	out, err := child(path, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	out.noteSamples("setup_s", setups)
	out.notes = append(out.notes, fmt.Sprintf("setup_s = that median + %.6g s loading the generated files in the child", out.metrics["setup_s"]))
	out.metrics["setup_s"] += median(setups)
	return out, nil
}

// runChild is the body of a child process: it loads what the manifest names
// and measures.
func runChild(manifestPath string, opt options) (*outcome, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	spec, ok := workloadByName(m.Workload)
	if !ok {
		return nil, fmt.Errorf("manifest names unknown workload %q", m.Workload)
	}
	workDir, err := os.MkdirTemp(opt.outDir, "work-child-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	tr := newTracer(spec.Name, "workload")
	out := newOutcome()
	if spec.Kind == serving {
		err = runServing(spec, m, opt, tr, out)
	} else {
		err = runCounting(spec, m, opt, tr, out, workDir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if opt.trace {
		if err := tr.write(filepath.Join(opt.outDir, spec.Name+".trace.json")); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(opt.outDir, spec.Name+".layers.txt"), []byte(metricTable(out, perLayer)), 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}
