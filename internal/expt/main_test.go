package expt

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain reports the process's peak resident memory under -v: the
// experiment drivers simulate 2 688-rank worlds, so a per-rank or per-pair
// constant shows up here first. The figure is VmHWM from /proc/self/status,
// which only Linux has; elsewhere nothing is printed.
func TestMain(m *testing.M) {
	code := m.Run()
	if testing.Verbose() {
		if hwm, ok := peakRSS(); ok {
			fmt.Printf("VmHWM: %s\n", hwm)
		}
	}
	os.Exit(code)
}

// peakRSS returns the VmHWM value of /proc/self/status ("1234 kB").
func peakRSS() (string, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}
