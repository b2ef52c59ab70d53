package pipeline

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunRoundsCheckpointOrder pins the one schedule's hook order: every
// round runs start, parse, exchange and count in turn, and a checkpoint
// round persists after its count — unless the world has drained, when the
// loop ends without one.
func TestRunRoundsCheckpointOrder(t *testing.T) {
	var calls []string
	log := func(name string, r int) { calls = append(calls, fmt.Sprintf("%s%d", name, r)) }
	const last = 3 // rounds 0..3; this rank's input continues until round 3
	h := roundHooks{
		start:    func(r int) error { log("start", r); return nil },
		parse:    func(r int) (bool, error) { log("parse", r); return r < last, nil },
		exchange: func(r int, more bool) (bool, error) { log("exchange", r); return more, nil },
		count:    func(r int) error { log("count", r); return nil },
		ckptAt:   func(r int) bool { return r%2 == 1 },
		ckpt:     func(r int) error { log("ckpt", r); return nil },
	}
	rounds, err := runRounds(0, h)
	if err != nil || rounds != last+1 {
		t.Fatalf("rounds=%d err=%v, want %d", rounds, err, last+1)
	}
	want := "start0 parse0 exchange0 count0 " +
		"start1 parse1 exchange1 count1 ckpt1 " +
		"start2 parse2 exchange2 count2 " +
		"start3 parse3 exchange3 count3" // round 3 would checkpoint, but the world drained
	if got := strings.Join(calls, " "); got != want {
		t.Fatalf("hook order:\n got %s\nwant %s", got, want)
	}
}
