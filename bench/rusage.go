package main

import (
	"runtime"
	"syscall"
	"time"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// memCounters snapshots the allocation counters a repetition is charged by.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
