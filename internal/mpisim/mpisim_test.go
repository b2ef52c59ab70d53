package mpisim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBasics(t *testing.T) {
	var count atomic.Int32
	seen := make([]atomic.Bool, 8)
	_, err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			t.Errorf("Size = %d", c.Size())
		}
		if seen[c.Rank()].Swap(true) {
			t.Errorf("rank %d ran twice", c.Rank())
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if _, err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := RunWithOptions(2, Options{Deadline: -time.Second}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("negative deadline should fail")
	}
	if _, err := RunWithOptions(2, Options{RanksPerNode: -1}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("negative node width should fail")
	}
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, all pre-barrier writes must be visible.
	const p = 16
	vals := make([]int, p)
	_, err := Run(p, func(c *Comm) error {
		vals[c.Rank()] = c.Rank() + 1
		if err := c.Barrier(); err != nil {
			return err
		}
		for i, v := range vals {
			if v != i+1 {
				t.Errorf("rank %d: vals[%d] = %d after barrier", c.Rank(), i, v)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) error {
		send := make([]int, p)
		for j := range send {
			send[j] = c.Rank()*100 + j
		}
		recv, err := c.Alltoall(send)
		if err != nil {
			return err
		}
		for i, v := range recv {
			if want := i*100 + c.Rank(); v != want {
				t.Errorf("rank %d: recv[%d] = %d, want %d", c.Rank(), i, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvBytesPermutation(t *testing.T) {
	// Property (e) of DESIGN.md: the exchange is a permutation — no payload
	// lost or duplicated, each byte slice arrives at exactly its target.
	const p = 7
	_, err := Run(p, func(c *Comm) error {
		send := make([][]byte, p)
		for j := range send {
			send[j] = []byte(fmt.Sprintf("from%d-to%d", c.Rank(), j))
		}
		recv, err := c.AlltoallvBytes(send)
		if err != nil {
			return err
		}
		for i, payload := range recv {
			want := fmt.Sprintf("from%d-to%d", i, c.Rank())
			if string(payload) != want {
				t.Errorf("rank %d: recv[%d] = %q, want %q", c.Rank(), i, payload, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvWords(t *testing.T) {
	const p = 4
	totalSent := make([]uint64, p)
	totalRecv := make([]uint64, p)
	_, err := Run(p, func(c *Comm) error {
		send := make([][]uint64, p)
		for j := range send {
			for x := 0; x <= c.Rank()+j; x++ {
				send[j] = append(send[j], uint64(1000*c.Rank()+x))
			}
			totalSent[c.Rank()] += uint64(len(send[j]))
		}
		recv, err := Alltoallv(c, send)
		if err != nil {
			return err
		}
		var got uint64
		for i, words := range recv {
			got += uint64(len(words))
			if len(words) != i+c.Rank()+1 {
				t.Errorf("rank %d: recv[%d] has %d words", c.Rank(), i, len(words))
			}
		}
		totalRecv[c.Rank()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent, recvd uint64
	for i := 0; i < p; i++ {
		sent += totalSent[i]
		recvd += totalRecv[i]
	}
	if sent != recvd {
		t.Fatalf("conservation violated: sent %d, received %d", sent, recvd)
	}
}

func TestReductions(t *testing.T) {
	const p = 6
	_, err := Run(p, func(c *Comm) error {
		if got, err := c.AllreduceSum(uint64(c.Rank())); err != nil || got != p*(p-1)/2 {
			t.Errorf("sum = %d, err = %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleCollectivesInSequence(t *testing.T) {
	// Slot reuse across many collectives must be safe.
	const p, rounds = 5, 20
	_, err := Run(p, func(c *Comm) error {
		for r := 0; r < rounds; r++ {
			v, err := c.AllreduceSum(uint64(r))
			if err != nil {
				return err
			}
			if v != uint64(r*p) {
				t.Errorf("round %d: sum %d", r, v)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceRecorded checks the folded entry of each traced collective on a
// 12-rank world of two 6-rank nodes. Rank i sends (i+1)(j+1) units to rank
// j, so node 0 holds send weights 1..6 (sum 21) and node 1 weights 7..12
// (sum 57): the fabric carries 2·21·57 units, 21·57 each way per node.
func TestTraceRecorded(t *testing.T) {
	const p, perNode = 12, 6
	topo := Topology{RanksPerNode: perNode}
	trace, err := RunWithOptions(p, Options{RanksPerNode: perNode}, func(c *Comm) error {
		bytes := make([][]byte, p)
		words := make([][]uint64, p)
		node := make([][]byte, p)
		for j := range bytes {
			n := (c.Rank() + 1) * (j + 1)
			bytes[j] = make([]byte, n)
			words[j] = make([]uint64, n)
			if topo.SameNode(c.Rank(), j) {
				node[j] = bytes[j]
			}
		}
		if _, err := c.Alltoall(make([]int, p)); err != nil {
			return err
		}
		if _, err := c.AlltoallvBytes(bytes); err != nil {
			return err
		}
		if _, err := IAlltoallv(c, words).Wait(); err != nil {
			return err
		}
		if _, err := c.NodeAlltoallvBytes(topo, node); err != nil {
			return err
		}
		_, err := c.AllreduceSum(1) // not traced: no payload
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEntry{
		// One 8-byte count word per ordered pair, self included.
		{Op: "alltoall", Volume: VolumeStats{TotalBytes: 8 * p * p, FabricBytes: 8 * p * perNode, MaxNodeBytes: 8 * perNode * perNode}, FabricRanks: p},
		{Op: "alltoallv", Volume: VolumeStats{TotalBytes: 78 * 78, FabricBytes: 2 * 21 * 57, MaxNodeBytes: 21 * 57}, FabricRanks: p},
		{Op: "alltoallv", Volume: VolumeStats{TotalBytes: 8 * 78 * 78, FabricBytes: 8 * 2 * 21 * 57, MaxNodeBytes: 8 * 21 * 57}, FabricRanks: p},
		// The node tier never touches the fabric.
		{Op: "node_alltoallv", Volume: VolumeStats{TotalBytes: 21*21 + 57*57}},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %+v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, trace[i], want[i])
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("boom")
		}
		return c.Barrier() // peers must not deadlock
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("peers should fail with ErrPeerDead, got %v", err)
	}
}

func TestAllRankFailuresReported(t *testing.T) {
	// Regression: every rank's failure must appear in the joined error, not
	// just the first one — mixed panics and error returns.
	_, err := Run(6, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return errors.New("failure-one")
		case 3:
			panic("failure-three")
		case 5:
			return errors.New("failure-five")
		}
		err := c.Barrier()
		if err == nil {
			t.Errorf("rank %d: barrier should fail after peer deaths", c.Rank())
		}
		return err
	})
	if err == nil {
		t.Fatal("expected a joined error")
	}
	for _, want := range []string{"failure-one", "failure-three", "failure-five", "rank 1", "rank 3", "rank 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if !errors.Is(err, ErrPeerDead) {
		t.Errorf("surviving ranks should report ErrPeerDead: %v", err)
	}
}

func TestErrorReturnPoisonsWorld(t *testing.T) {
	// A rank that returns an error (no panic) must still unblock peers.
	var unblocked atomic.Int32
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("early exit")
		}
		if err := c.Barrier(); err != nil {
			unblocked.Add(1)
			return err
		}
		return nil
	})
	if err == nil || !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v", err)
	}
	if unblocked.Load() != 2 {
		t.Fatalf("%d peers unblocked, want 2", unblocked.Load())
	}
}

// TestCompletedCollectiveSurvivesLaterDeath: a collective every rank
// entered completes on every rank, even when a peer fails right after it
// and poisons the world before the other ranks have woken: each rank then
// reports its own failure, not a peer's death.
func TestCompletedCollectiveSurvivesLaterDeath(t *testing.T) {
	own := errors.New("failed after the collective")
	for iter := 0; iter < 20; iter++ {
		_, errs, err := RunRanks(32, Options{}, func(c *Comm) error {
			if _, err := c.AllreduceSum(1); err != nil {
				return err
			}
			return own
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, e := range errs {
			if e != own {
				t.Fatalf("iter %d: rank %d returned %v, want its own failure", iter, r, e)
			}
		}
	}
}

func TestRankDeathUnblocksCollectives(t *testing.T) {
	// Poisoned-world semantics: a rank dying inside each collective must
	// unblock all peers with ErrPeerDead within the deadline.
	collectives := []struct {
		name string
		call func(c *Comm) error
	}{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"alltoall", func(c *Comm) error {
			_, err := c.Alltoall(make([]int, c.Size()))
			return err
		}},
		{"alltoallvbytes", func(c *Comm) error {
			send := make([][]byte, c.Size())
			for j := range send {
				send[j] = []byte{byte(c.Rank()), byte(j)}
			}
			_, err := c.AlltoallvBytes(send)
			return err
		}},
	}
	for _, tc := range collectives {
		t.Run(tc.name, func(t *testing.T) {
			const p = 5
			start := time.Now()
			var peerErrs atomic.Int32
			_, err := RunWithOptions(p, Options{Deadline: 5 * time.Second}, func(c *Comm) error {
				if c.Rank() == 1 {
					return fmt.Errorf("rank 1 dies before %s", tc.name)
				}
				err := tc.call(c)
				if err == nil {
					t.Errorf("rank %d: %s completed despite dead peer", c.Rank(), tc.name)
					return nil
				}
				if errors.Is(err, ErrPeerDead) {
					peerErrs.Add(1)
				}
				return err
			})
			if err == nil || !errors.Is(err, ErrPeerDead) {
				t.Fatalf("err = %v", err)
			}
			if peerErrs.Load() != p-1 {
				t.Fatalf("%d peers saw ErrPeerDead, want %d", peerErrs.Load(), p-1)
			}
			// "Within the deadline": unblocking is poison-driven, far faster
			// than the 5s deadline.
			if elapsed := time.Since(start); elapsed > 4*time.Second {
				t.Fatalf("unblocking took %v", elapsed)
			}
		})
	}
}

func TestCollectiveDeadline(t *testing.T) {
	// A live but stalled straggler must trip ErrDeadline for the waiters
	// (and for itself once it arrives at the poisoned barrier).
	var deadlineErrs atomic.Int32
	start := time.Now()
	_, err := RunWithOptions(4, Options{Deadline: 30 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 2 {
			time.Sleep(300 * time.Millisecond) // well past the deadline
		}
		err := c.Barrier()
		if errors.Is(err, ErrDeadline) {
			deadlineErrs.Add(1)
		}
		return err
	})
	if err == nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	if deadlineErrs.Load() != 4 {
		t.Fatalf("%d ranks saw ErrDeadline, want 4", deadlineErrs.Load())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline release took %v", elapsed)
	}
}

func TestDeadlineNotTrippedByFastRun(t *testing.T) {
	// A healthy world far under the deadline must be unaffected by timers.
	_, err := RunWithOptions(8, Options{Deadline: 5 * time.Second}, func(c *Comm) error {
		for r := 0; r < 10; r++ {
			if _, err := c.AllreduceSum(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedSendLengthFails(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		_, err := c.Alltoall([]int{1, 2}) // wrong length
		if err == nil {
			t.Error("mismatched length should error")
		}
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestNetModelIntraNodeFree(t *testing.T) {
	nm := NetModel{RanksPerNode: 2, InjectionGBs: 10, LatencyUs: 0}
	// Two ranks on one node exchanging: no fabric time.
	intra := foldMatrix(nm.Topology(), [][]uint64{{0, 1 << 30}, {1 << 30, 0}})
	if d := nm.CollectiveTime(intra); d != 0 {
		t.Fatalf("intra-node traffic cost %v, want 0", d)
	}
	if vs := intra.Volume; vs.FabricBytes != 0 || vs.TotalBytes != 2<<30 {
		t.Fatalf("volumes = %+v", vs)
	}
}

func TestNetModelInjectionBound(t *testing.T) {
	nm := NetModel{RanksPerNode: 1, InjectionGBs: 10, LatencyUs: 0}
	// Rank 0 sends 10 GB to rank 1: 1 second at 10 GB/s.
	e := foldMatrix(nm.Topology(), [][]uint64{{0, 10_000_000_000}, {0, 0}})
	got := nm.CollectiveTime(e).Seconds()
	if got < 0.99 || got > 1.01 {
		t.Fatalf("time = %.3fs, want 1s", got)
	}
	if e.Volume.MaxNodeBytes != 10_000_000_000 {
		t.Fatalf("MaxNodeBytes = %d", e.Volume.MaxNodeBytes)
	}
}

func TestNetModelSkewRaisesTime(t *testing.T) {
	nm := NetModel{RanksPerNode: 1, InjectionGBs: 1, LatencyUs: 0}
	// Balanced: each of 4 ranks sends 1 unit to each other rank.
	balanced := make([][]uint64, 4)
	skewed := make([][]uint64, 4)
	for i := range balanced {
		balanced[i] = make([]uint64, 4)
		skewed[i] = make([]uint64, 4)
		for j := range balanced[i] {
			if i != j {
				balanced[i][j] = 1 << 20
			}
		}
	}
	// Same total volume, all into rank 3.
	skewed[0][3] = 3 << 20
	skewed[1][3] = 3 << 20
	skewed[2][3] = 3 << 20
	skewed[0][1] = 1 << 20 // residual to keep totals close
	tb := nm.CollectiveTime(foldMatrix(nm.Topology(), balanced))
	ts := nm.CollectiveTime(foldMatrix(nm.Topology(), skewed))
	if ts <= tb {
		t.Fatalf("skewed exchange (%v) should cost more than balanced (%v)", ts, tb)
	}
}

func TestNetModelLatencyTerm(t *testing.T) {
	nm := NetModel{RanksPerNode: 1, InjectionGBs: 1000, LatencyUs: 100}
	m := make([][]uint64, 9)
	for i := range m {
		m[i] = make([]uint64, 9)
		for j := range m[i] {
			if i != j {
				m[i][j] = 1 // negligible bytes: the fabric round-trips dominate
			}
		}
	}
	got := nm.CollectiveTime(foldMatrix(nm.Topology(), m))
	want := time.Duration(100*8) * time.Microsecond
	if got < want-time.Microsecond || got > want+time.Millisecond {
		t.Fatalf("latency-only time %v, want ≈%v", got, want)
	}
	// Only ranks that touch the fabric pay latency rounds: a leader-only
	// exchange among 3 of the 9 ranks pays α(3−1), and a collective that
	// moves no fabric bytes (empty, or purely intra-node) pays nothing.
	leaders := make([][]uint64, 9)
	for i := range leaders {
		leaders[i] = make([]uint64, 9)
	}
	leaders[0][3], leaders[3][6], leaders[6][0] = 1, 1, 1
	if got := nm.CollectiveTime(foldMatrix(nm.Topology(), leaders)); got < 199*time.Microsecond || got > 201*time.Microsecond {
		t.Fatalf("leader exchange latency %v, want ≈200µs", got)
	}
	if got := nm.CollectiveTime(foldMatrix(nm.Topology(), make([][]uint64, 9))); got != 0 {
		t.Fatalf("empty collective cost %v, want 0", got)
	}
	intra := NetModel{RanksPerNode: 3, InjectionGBs: 1000, LatencyUs: 100}
	node := make([][]uint64, 9)
	for i := range node {
		node[i] = make([]uint64, 9)
		for j := range node[i] {
			if i/3 == j/3 && i != j {
				node[i][j] = 1 << 20
			}
		}
	}
	if got := intra.CollectiveTime(foldMatrix(intra.Topology(), node)); got != 0 {
		t.Fatalf("intra-node collective cost %v, want 0", got)
	}
}

func TestNetModelValidate(t *testing.T) {
	bad := []NetModel{
		{RanksPerNode: 0, InjectionGBs: 1},
		{RanksPerNode: 1, InjectionGBs: 0},
		{RanksPerNode: 1, InjectionGBs: 1, LatencyUs: -1},
	}
	for i, nm := range bad {
		if err := nm.Validate(); err == nil {
			t.Errorf("model %d should be invalid", i)
		}
	}
	if (NetModel{RanksPerNode: 6, InjectionGBs: 23, LatencyUs: 2}).Validate() != nil {
		t.Error("valid model rejected")
	}
}

func TestNetModelNodeMapping(t *testing.T) {
	tp := NetModel{RanksPerNode: 6, InjectionGBs: 23}.Topology()
	if tp.NodeOf(0) != 0 || tp.NodeOf(5) != 0 || tp.NodeOf(6) != 1 {
		t.Fatal("node mapping wrong")
	}
	if tp.Nodes(96) != 16 || tp.Nodes(97) != 17 {
		t.Fatal("node count wrong")
	}
}

func TestBigWorld(t *testing.T) {
	// 384 ranks (the paper's 64-node GPU configuration) must run fine.
	const p = 384
	_, err := Run(p, func(c *Comm) error {
		s, err := c.AllreduceSum(1)
		if err != nil {
			return err
		}
		if s != p {
			t.Errorf("sum = %d", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ---- Nonblocking collective tests ------------------------------------------

func TestNonblockingAlltoallMatchesBlocking(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) error {
		send := make([]int, p)
		for j := range send {
			send[j] = c.Rank()*100 + j
		}
		req := c.IAlltoall(send)
		// The send vector is copied at post time: clobbering it here must
		// not affect the exchange.
		for j := range send {
			send[j] = -1
		}
		recv, err := req.Wait()
		if err != nil {
			return err
		}
		for i, v := range recv {
			if want := i*100 + c.Rank(); v != want {
				t.Errorf("rank %d recv[%d] = %d, want %d", c.Rank(), i, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingAlltoallvPayloads(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) error {
		words := make([][]uint64, p)
		bytes := make([][]byte, p)
		for j := range words {
			words[j] = []uint64{uint64(c.Rank()), uint64(j)}
			bytes[j] = []byte{byte(c.Rank()), byte(j), 0xAA}
		}
		wr := IAlltoallv(c, words)
		br := c.IAlltoallvBytes(bytes)
		gotW, err := wr.Wait()
		if err != nil {
			return err
		}
		gotB, err := br.Wait()
		if err != nil {
			return err
		}
		for i := 0; i < p; i++ {
			if gotW[i][0] != uint64(i) || gotW[i][1] != uint64(c.Rank()) {
				t.Errorf("rank %d words from %d = %v", c.Rank(), i, gotW[i])
			}
			if gotB[i][0] != byte(i) || gotB[i][1] != byte(c.Rank()) || gotB[i][2] != 0xAA {
				t.Errorf("rank %d bytes from %d = %v", c.Rank(), i, gotB[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingOverlapsCompute posts an exchange, performs local work
// before Wait, and checks the result is still delivered intact — the
// overlap pattern the pipeline's double-buffered round loop uses.
func TestNonblockingOverlapsCompute(t *testing.T) {
	const p = 6
	_, err := Run(p, func(c *Comm) error {
		send := make([][]uint64, p)
		for j := range send {
			send[j] = []uint64{uint64(c.Rank()<<8 | j)}
		}
		req := IAlltoallv(c, send)
		// Simulated local compute while the exchange is in flight.
		sum := uint64(0)
		for i := 0; i < 1000; i++ {
			sum += uint64(i)
		}
		if sum == 0 {
			t.Error("unreachable")
		}
		recv, err := req.Wait()
		if err != nil {
			return err
		}
		for i := range recv {
			if recv[i][0] != uint64(i<<8|c.Rank()) {
				t.Errorf("rank %d recv[%d] = %v", c.Rank(), i, recv[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingPostingOrderPreserved(t *testing.T) {
	// Two exchanges posted back to back must match across ranks in posting
	// order, even though both run on background goroutines.
	const p = 4
	_, err := Run(p, func(c *Comm) error {
		first := make([]int, p)
		second := make([]int, p)
		for j := range first {
			first[j] = 1
			second[j] = 2
		}
		r1 := c.IAlltoall(first)
		r2 := c.IAlltoall(second)
		got2, err := r2.Wait() // waiting out of order is legal
		if err != nil {
			return err
		}
		got1, err := r1.Wait()
		if err != nil {
			return err
		}
		for i := 0; i < p; i++ {
			if got1[i] != 1 || got2[i] != 2 {
				t.Errorf("rank %d got1[%d]=%d got2[%d]=%d", c.Rank(), i, got1[i], i, got2[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitIdempotent(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		req := c.IAlltoall([]int{1, 2, 3})
		a, err := req.Wait()
		if err != nil {
			return err
		}
		b, err := req.Wait()
		if err != nil {
			return err
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("second Wait returned different data: %v vs %v", a, b)
			}
		}
		// After Wait, blocking collectives are legal again.
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockingWhilePendingErrors(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		req := c.IAlltoall([]int{0, 0})
		if _, berr := c.AllreduceSum(1); berr == nil {
			t.Error("AllreduceSum with pending request should error")
		} else if !strings.Contains(berr.Error(), "outstanding") {
			t.Errorf("unexpected error: %v", berr)
		}
		if berr := c.Barrier(); berr == nil {
			t.Error("Barrier with pending request should error")
		}
		_, err := req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingValidationError(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		req := c.IAlltoall([]int{1}) // wrong length
		if _, werr := req.Wait(); werr == nil {
			t.Error("bad send length should surface from Wait")
		}
		// The failed request must not wedge the pending counter.
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingPeerDeathPoisons(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return boom // dies without posting
		}
		req := IAlltoallv(c, make([][]uint64, 3))
		_, werr := req.Wait()
		if werr == nil {
			t.Errorf("rank %d: Wait should fail after peer death", c.Rank())
		} else if !errors.Is(werr, ErrPeerDead) {
			t.Errorf("rank %d: want ErrPeerDead, got %v", c.Rank(), werr)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the dead rank's error, got %v", err)
	}
}

func TestNonblockingDeadline(t *testing.T) {
	_, err := RunWithOptions(2, Options{Deadline: 30 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(200 * time.Millisecond) // stall past the deadline
		}
		req := c.IAlltoall([]int{1, 1})
		_, werr := req.Wait()
		if c.Rank() == 0 {
			if werr == nil || !errors.Is(werr, ErrDeadline) {
				t.Errorf("rank 0: want ErrDeadline, got %v", werr)
			}
		}
		return nil
	})
	_ = err // world is poisoned; per-rank outcomes checked above
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
