package mpisim

import (
	"testing"
	"time"
)

// busyWait burns wall-clock time without yielding, standing in for a rank's
// compute phase. Wall-based (not op-counted) so instrumented builds (-race)
// see the same durations.
func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	x := 0
	for time.Now().Before(end) {
		x++
	}
	_ = x
}

// wireWorld is the round structure the pipeline drives: an announce
// (IAlltoall), a payload (IAlltoallv), and a settle collective
// (AllreduceSum) per round, with compute split before and after the
// exchange.
type wirePend struct {
	ann *Request[[]int]
	pay *Request[[][]uint64]
}

func wirePost(c *Comm) wirePend {
	counts := make([]int, c.Size())
	send := make([][]uint64, c.Size())
	for i := range send {
		counts[i] = 1
		send[i] = []uint64{uint64(c.Rank())}
	}
	return wirePend{c.IAlltoall(counts), IAlltoallv(c, send)}
}

func wireFinish(c *Comm, p wirePend) error {
	if _, err := p.ann.Wait(); err != nil {
		return err
	}
	if _, err := p.pay.Wait(); err != nil {
		return err
	}
	_, err := c.AllreduceSum(0)
	return err
}

// TestWireTimeBlockingPaysTransfer: with a flat WireTime and round-
// synchronized ranks, the blocking schedule pays roughly compute + wire per
// round — the settle collective holds every rank until the slowest wire
// elapses.
//
// TestWireTimeOverlapHidesTransfer: the overlapped schedule (one round
// lookahead, post before the compute that hides it) approaches
// max(compute, wire) per round. The assertion is deliberately loose — a
// scheduler hiccup must not flake CI — but the expected gap is large: with
// wire ≈ transfer-bound rounds the overlapped run should recover a
// substantial fraction of the wire time.
func TestWireTimeOverlapHidesTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		ranks   = 6
		rounds  = 8
		wire    = 10 * time.Millisecond
		compute = 8 * time.Millisecond // per round, across all ranks
	)
	opt := Options{WireTime: func(int) time.Duration { return wire }}

	run := func(overlap bool) time.Duration {
		start := time.Now()
		_, err := RunWithOptions(ranks, opt, func(c *Comm) error {
			if !overlap {
				for r := 0; r < rounds; r++ {
					busyWait(compute / 2 / ranks)
					p := wirePost(c)
					if err := wireFinish(c, p); err != nil {
						return err
					}
					busyWait(compute / 2 / ranks)
				}
				return nil
			}
			busyWait(compute / 2 / ranks)
			p := wirePost(c)
			for r := 0; r < rounds; r++ {
				if r+1 < rounds {
					busyWait(compute / 2 / ranks)
				}
				if err := wireFinish(c, p); err != nil {
					return err
				}
				if r+1 < rounds {
					p = wirePost(c)
				}
				busyWait(compute / 2 / ranks)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	serial := run(false)
	overlapped := run(true)
	t.Logf("serial %v, overlapped %v", serial, overlapped)

	// Serial pays wire on every round; it cannot beat rounds × wire.
	if min := rounds * wire; serial < min {
		t.Errorf("serial run %v beat the wire floor %v: WireTime not charged", serial, min)
	}
	// Overlap must recover a meaningful share of the wire time. The model
	// predicts ≈ rounds × max(compute, wire) vs rounds × (compute + wire):
	// a ~45% gap here; demand 10%.
	if overlapped >= serial-serial/10 {
		t.Errorf("overlapped run %v did not hide wire time (serial %v)", overlapped, serial)
	}
}

// TestWireTimeSelfDeliveryFree: a single-rank world sends only to itself;
// self-delivery is a local copy and must not be charged wire time.
func TestWireTimeSelfDeliveryFree(t *testing.T) {
	opt := Options{WireTime: func(int) time.Duration { return time.Second }}
	start := time.Now()
	_, err := RunWithOptions(1, opt, func(c *Comm) error {
		_, err := Alltoallv(c, [][]uint64{{1, 2, 3}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("self-only exchange took %v: wire charged for self-delivery", el)
	}
}

// TestWireTimeElapsedSinceInitiation: the wire clock starts when the
// collective is initiated, not when the barrier completes — compute done
// between post and Wait counts toward the transfer (RDMA-like semantics).
func TestWireTimeElapsedSinceInitiation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const wire = 30 * time.Millisecond
	opt := Options{WireTime: func(int) time.Duration { return wire }}
	start := time.Now()
	_, err := RunWithOptions(2, opt, func(c *Comm) error {
		send := [][]uint64{{1}, {2}}
		req := IAlltoallv(c, send)
		busyWait(wire) // compute covers the whole transfer
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank computed `wire` once; the transfer overlapped it entirely,
	// so the run must finish well under compute + wire (2 ranks share the
	// clock in the worst 1-core case: allow 2×wire + half).
	if el := time.Since(start); el > 2*wire+wire/2 {
		t.Errorf("run took %v: wire time not counted from initiation (wire %v)", el, wire)
	}
}
