package mpisim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestShrinkAfterRankDeath kills one rank mid-run and has the survivors
// shrink onto a smaller world and finish a collective there.
func TestShrinkAfterRankDeath(t *testing.T) {
	const size = 4
	const dead = 2
	sums := make([]uint64, size)
	maps := make([][]int, size)
	trace, errs, err := RunRanks(size, Options{Deadline: 5 * time.Second}, func(c *Comm) error {
		if c.Rank() == dead {
			return errors.New("boom")
		}
		// Survivors eventually hit the poisoned world.
		old := c.Rank()
		for {
			if _, err := c.AllreduceSum(1); err != nil {
				if !errors.Is(err, ErrPeerDead) {
					return err
				}
				break
			}
		}
		survivors, err := c.Shrink()
		if err != nil {
			return err
		}
		maps[old] = survivors
		if c.Size() != size-1 {
			return fmt.Errorf("shrunk size %d, want %d", c.Size(), size-1)
		}
		if survivors[c.Rank()] != old {
			return fmt.Errorf("survivors[%d]=%d, want old rank %d", c.Rank(), survivors[c.Rank()], old)
		}
		s, err := c.AllreduceSum(uint64(old))
		if err != nil {
			return err
		}
		sums[old] = s
		// A recorded collective in the shrunk world must land in the same
		// trace as the pre-death ones.
		if _, err := c.Alltoall(make([]int, c.Size())); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if r == dead {
			if e == nil {
				t.Fatalf("dead rank %d reported no error", r)
			}
			continue
		}
		if e != nil {
			t.Fatalf("survivor %d: %v", r, e)
		}
	}
	want := uint64(0 + 1 + 3)
	for _, r := range []int{0, 1, 3} {
		if sums[r] != want {
			t.Fatalf("rank %d post-shrink sum %d, want %d", r, sums[r], want)
		}
		if len(maps[r]) != 3 || maps[r][0] != 0 || maps[r][1] != 1 || maps[r][2] != 3 {
			t.Fatalf("rank %d survivors map %v, want [0 1 3]", r, maps[r])
		}
	}
	if len(trace) == 0 {
		t.Fatal("no trace entries recorded across worlds")
	}
}

// TestShrinkRefusals covers the protocol's guard rails.
func TestShrinkRefusals(t *testing.T) {
	// Healthy world: Shrink must refuse.
	_, errs, err := RunRanks(2, Options{}, func(c *Comm) error {
		if _, err := c.Shrink(); err == nil {
			return errors.New("Shrink on a healthy world succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}

	// Deadline-poisoned world: the stalled rank may still be alive, so
	// Shrink must refuse with the deadline error, not ErrPeerDead.
	release := make(chan struct{})
	_, errs, err = RunRanks(2, Options{Deadline: 20 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 1 {
			<-release
			return nil
		}
		if err := c.Barrier(); !errors.Is(err, ErrDeadline) {
			return fmt.Errorf("barrier: got %v, want ErrDeadline", err)
		}
		_, err := c.Shrink()
		if err == nil {
			return errors.New("Shrink on a deadline-poisoned world succeeded")
		}
		if !errors.Is(err, ErrDeadline) {
			return fmt.Errorf("Shrink: got %v, want ErrDeadline", err)
		}
		close(release)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

// TestShrinkTwice chains two shrinks: kill one rank, recover, kill
// another, recover again, verifying the survivor mappings compose.
func TestShrinkTwice(t *testing.T) {
	const size = 4
	finished := make([]bool, size)
	_, errs, err := RunRanks(size, Options{Deadline: 5 * time.Second}, func(c *Comm) error {
		old := c.Rank()
		if old == 1 {
			return errors.New("first death")
		}
		if _, err := c.AllreduceSum(1); !errors.Is(err, ErrPeerDead) {
			return fmt.Errorf("want ErrPeerDead, got %v", err)
		}
		sv1, err := c.Shrink()
		if err != nil {
			return err
		}
		// Second death, in the shrunk world: old rank 3 is new rank 2.
		if old == 3 {
			return errors.New("second death")
		}
		for {
			if _, err := c.AllreduceSum(1); err != nil {
				if !errors.Is(err, ErrPeerDead) {
					return err
				}
				break
			}
		}
		sv2, err := c.Shrink()
		if err != nil {
			return err
		}
		// sv2 maps new rank → first-shrunk-world rank; compose with sv1
		// to reach original ids.
		if got := sv1[sv2[c.Rank()]]; got != old {
			return fmt.Errorf("composed mapping %d, want %d", got, old)
		}
		if c.Size() != 2 {
			return fmt.Errorf("size %d after two shrinks, want 2", c.Size())
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		finished[old] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2} {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		if !finished[r] {
			t.Fatalf("survivor %d did not finish", r)
		}
	}
	if errs[1] == nil || errs[3] == nil {
		t.Fatal("dead ranks reported no error")
	}
}

// TestAllreduceOr checks the union semantics the dead-set agreement
// relies on.
func TestAllreduceOr(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		got, err := c.AllreduceOr(1 << uint(c.Rank()))
		if err != nil {
			return err
		}
		if got != 0b111 {
			return fmt.Errorf("AllreduceOr = %b, want 111", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRankDeathMidRoundNeverMixesCollectives stresses the hazard a rank
// death opens in the two-barrier exchange: poisoning releases ranks from
// the barriers early, so a rank that bails out of one collective can reach
// its next — of a different payload type, here the chained announce →
// payload → settle of a pipeline round — while a slower peer is still
// collecting the previous one. Deposits into a poisoned world must be
// refused; otherwise the peer reads a wrong-typed slot and panics, from a
// request goroutine that nothing recovers. Every survivor must instead see
// ErrPeerDead.
func TestRankDeathMidRoundNeverMixesCollectives(t *testing.T) {
	boom := errors.New("boom")
	for iter := 0; iter < 300; iter++ {
		_, errs, err := RunRanks(6, Options{}, func(c *Comm) error {
			for round := 0; round < 3; round++ {
				p := postRound(c)
				if c.Rank() == 1 && round == 1 {
					return boom // dies with its round posted, like a killed pipeline rank
				}
				if err := finishRound(c, p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, e := range errs {
			switch {
			case r == 1 && !errors.Is(e, boom):
				t.Fatalf("iter %d: rank 1 returned %v, want its own failure", iter, e)
			case r != 1 && !errors.Is(e, ErrPeerDead):
				t.Fatalf("iter %d: rank %d returned %v, want ErrPeerDead", iter, r, e)
			}
		}
	}
}

// roundPend is the round structure the pipeline drives: an announce
// (IAlltoall), a payload (IAlltoallv), and a settle collective
// (AllreduceSum) per round.
type roundPend struct {
	ann *Request[[]int]
	pay *Request[[][]uint64]
}

func postRound(c *Comm) roundPend {
	counts := make([]int, c.Size())
	send := make([][]uint64, c.Size())
	for i := range send {
		counts[i] = 1
		send[i] = []uint64{uint64(c.Rank())}
	}
	return roundPend{c.IAlltoall(counts), IAlltoallv(c, send)}
}

func finishRound(c *Comm, p roundPend) error {
	if _, err := p.ann.Wait(); err != nil {
		return err
	}
	if _, err := p.pay.Wait(); err != nil {
		return err
	}
	_, err := c.AllreduceSum(0)
	return err
}
