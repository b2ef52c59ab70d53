//go:build race

package main

// raceEnabled relaxes TestQuickSuite's time budget: the race detector slows
// the simulated ranks about fivefold.
const raceEnabled = true
