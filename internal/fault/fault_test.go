package fault

import (
	"bytes"
	"testing"
	"time"
)

func TestZeroConfigNeverFires(t *testing.T) {
	in, err := New(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{1, 2, 3, 4}
	for rank := 0; rank < 4; rank++ {
		for round := 0; round < 50; round++ {
			if in.Kill(rank, round) {
				t.Fatal("kill fired with zero config")
			}
			if in.Delay(rank, round) != 0 {
				t.Fatal("delay fired with zero config")
			}
			for dest := 0; dest < 4; dest++ {
				if in.Drop(rank, round, 0, dest) {
					t.Fatal("drop fired with zero config")
				}
				if _, hit := Corrupt(in, rank, round, 0, dest, frame); hit {
					t.Fatal("corrupt fired with zero config")
				}
			}
		}
	}
	for _, c := range in.Snapshot() {
		if c.Total() != 0 {
			t.Fatalf("counts non-zero: %+v", c)
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Kill: 0.1, Delay: 0.1, Drop: 0.1, Corrupt: 0.1}
	a, _ := New(cfg, 8)
	b, _ := New(cfg, 8)
	frame := bytes.Repeat([]byte{0xAA}, 32)
	for rank := 0; rank < 8; rank++ {
		for round := 0; round < 20; round++ {
			if a.Kill(rank, round) != b.Kill(rank, round) {
				t.Fatal("kill schedule not deterministic")
			}
			if a.Delay(rank, round) != b.Delay(rank, round) {
				t.Fatal("delay schedule not deterministic")
			}
			for dest := 0; dest < 8; dest++ {
				if a.Drop(rank, round, 1, dest) != b.Drop(rank, round, 1, dest) {
					t.Fatal("drop schedule not deterministic")
				}
				fa, _ := Corrupt(a, rank, round, 1, dest, frame)
				fb, _ := Corrupt(b, rank, round, 1, dest, frame)
				if !bytes.Equal(fa, fb) {
					t.Fatal("corruption not deterministic")
				}
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := New(Config{Seed: 1, Drop: 0.5}, 4)
	b, _ := New(Config{Seed: 2, Drop: 0.5}, 4)
	same := true
	for round := 0; round < 64 && same; round++ {
		for dest := 0; dest < 4; dest++ {
			if a.Drop(0, round, 0, dest) != b.Drop(0, round, 0, dest) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical drop schedule")
	}
}

func TestAttemptRerollsDecision(t *testing.T) {
	// A retry (attempt+1) must re-roll: with p=0.5 some (round, dest) that
	// dropped on attempt 0 must clear on attempt 1.
	in, _ := New(Config{Seed: 7, Drop: 0.5}, 2)
	cleared := false
	for round := 0; round < 128; round++ {
		if in.Drop(0, round, 0, 1) && !in.Drop(0, round, 1, 1) {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("no dropped payload ever cleared on retry")
	}
}

func TestRatesApproximateProbability(t *testing.T) {
	in, _ := New(Config{Seed: 3, Drop: 0.1}, 1)
	fired := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if in.Drop(0, i, 0, 0) {
			fired++
		}
	}
	rate := float64(fired) / trials
	if rate < 0.07 || rate > 0.13 {
		t.Fatalf("drop rate %.3f far from configured 0.1", rate)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	in, _ := New(Config{Seed: 9, Corrupt: 1}, 1)
	frame := bytes.Repeat([]byte{0x5C}, 16)
	orig := append([]byte(nil), frame...)
	out, hit := Corrupt(in, 0, 0, 0, 0, frame)
	if !hit {
		t.Fatal("corrupt with p=1 did not fire")
	}
	if !bytes.Equal(frame, orig) {
		t.Fatal("Corrupt mutated the caller's frame")
	}
	diff := 0
	for i := range out {
		for b := 0; b < 8; b++ {
			if (out[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want 1", diff)
	}

	words := []uint64{1, 2, 3}
	wout, hit := Corrupt(in, 0, 0, 0, 0, words)
	if !hit {
		t.Fatal("word corrupt with p=1 did not fire")
	}
	wdiff := 0
	for i := range wout {
		x := wout[i] ^ words[i]
		for ; x != 0; x &= x - 1 {
			wdiff++
		}
	}
	if wdiff != 1 {
		t.Fatalf("flipped %d word bits, want 1", wdiff)
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	in, _ := New(Config{Seed: 5, Kill: 1, Delay: 1, Drop: 1, Corrupt: 1, DelayFor: time.Millisecond}, 3)
	if !in.Kill(1, 0) {
		t.Fatal("kill p=1 did not fire")
	}
	if in.Delay(1, 0) != time.Millisecond {
		t.Fatal("delay p=1 did not fire with configured duration")
	}
	in.Drop(1, 0, 0, 2)
	Corrupt(in, 1, 0, 0, 2, []byte{1})
	in.RecordBadFrames(2, 3)
	in.RecordRetry(2)
	s := in.Snapshot()
	if s[1].Killed != 1 || s[1].Delayed != 1 || s[1].Dropped != 1 || s[1].Corrupted != 1 {
		t.Fatalf("rank 1 counts = %+v", s[1])
	}
	if s[2].BadFrames != 3 || s[2].Retries != 1 {
		t.Fatalf("rank 2 counts = %+v", s[2])
	}
	if s[0].Total() != 0 {
		t.Fatalf("rank 0 counts = %+v", s[0])
	}
	var sum Counts
	for _, c := range s {
		sum.Add(c)
	}
	if sum.Total() != 4 || sum.BadFrames != 3 {
		t.Fatalf("aggregate = %+v", sum)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Kill: -0.1},
		{Drop: 1.5},
		{Corrupt: 2},
		{DelayFor: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 2); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(Config{Drop: 0.5}, 0); err == nil {
		t.Error("zero world size should be rejected")
	}
}
