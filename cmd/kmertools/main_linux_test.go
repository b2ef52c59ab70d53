package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestTraceJoinFailedWriteLeavesNoFile caps the process's file size below
// the joined trace's, so the write fails part way, and checks that neither
// the output nor its temporary file is left behind.
func TestTraceJoinFailedWriteLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	inputs := writeDumps(t, dir)
	out := filepath.Join(dir, "joined.json")

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip(err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 64, Max: old.Max}); err != nil {
		t.Skip(err)
	}
	err := runTraceJoin(append([]string{"-o", out}, inputs...))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("trace-join wrote past a 64-byte file size limit without an error")
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s left after a failed write (stat: %v)", filepath.Base(p), err)
		}
	}
}
