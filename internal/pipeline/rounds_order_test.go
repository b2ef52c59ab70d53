package pipeline

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunRoundsCheckpointOrder pins the overlapped schedule's hook order
// around a checkpoint round: the speculative parse is suppressed, and the
// deferred parse(r+1) follows ckpt(r) and precedes post(r+1), where no
// nonblocking request is pending. (Nothing orders a fast rank's next
// speculative parse behind a slow rank's deferred one: rounds are cut
// whole, so which rank asks first changes nothing.)
func TestRunRoundsCheckpointOrder(t *testing.T) {
	var calls []string
	log := func(name string, r int) { calls = append(calls, fmt.Sprintf("%s%d", name, r)) }
	const last = 3 // rounds 0..3; this rank's input continues until round 3
	h := roundHooks{
		start:  func(r int) error { log("start", r); return nil },
		parse:  func(r int) (bool, error) { log("parse", r); return r < last, nil },
		post:   func(r int, more bool) error { log("post", r); return nil },
		finish: func(r int) (bool, error) { log("finish", r); return r < last, nil },
		count:  func(r int) error { log("count", r); return nil },
		ckptAt: func(r int) bool { return r == 1 },
		ckpt:   func(r int) error { log("ckpt", r); return nil },
	}
	rounds, err := runRounds(true, 0, h)
	if err != nil || rounds != last+1 {
		t.Fatalf("rounds=%d err=%v, want %d", rounds, err, last+1)
	}
	want := "start0 parse0 post0 " +
		"start1 parse1 finish0 post1 count0 " + // round 0: speculative parse(1)
		"finish1 count1 ckpt1 start2 parse2 post2 " + // round 1 checkpoints: drained
		"start3 parse3 finish2 post3 count2 " + // round 2: overlap resumes
		"finish3 count3"
	if got := strings.Join(calls, " "); got != want {
		t.Fatalf("hook order:\n got %s\nwant %s", got, want)
	}
}
