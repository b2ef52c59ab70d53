package fault

import "testing"

func TestFatalKill(t *testing.T) {
	in, err := New(Config{FatalKill: true, FatalRank: 2, FatalRound: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		for round := 0; round < 6; round++ {
			want := rank == 2 && round == 3
			if got := in.FatalKill(rank, round); got != want {
				t.Fatalf("FatalKill(%d, %d) = %v, want %v", rank, round, got, want)
			}
		}
	}
	counts := in.Snapshot()
	if counts[2].Killed != 1 {
		t.Fatalf("rank 2 killed count %d, want 1", counts[2].Killed)
	}
	// The probabilistic Kill path must stay independent of FatalKill.
	if in.Kill(2, 3) {
		t.Fatal("probabilistic Kill fired with zero probability")
	}
}

func TestFatalKillValidation(t *testing.T) {
	if _, err := New(Config{FatalKill: true, FatalRank: 4, FatalRound: 0}, 4); err == nil {
		t.Fatal("fatal kill beyond world size accepted")
	}
	if err := (Config{FatalKill: true, FatalRank: -1, FatalRound: 0}).Validate(); err == nil {
		t.Fatal("negative fatal rank accepted")
	}
	if err := (Config{FatalKill: true, FatalRank: 0, FatalRound: -1}).Validate(); err == nil {
		t.Fatal("negative fatal round accepted")
	}
}
