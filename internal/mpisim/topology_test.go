package mpisim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTopologyGrouping pins the node arithmetic, including the ragged last
// node and the flat zero value.
func TestTopologyGrouping(t *testing.T) {
	tp := Topology{RanksPerNode: 3}
	for rank, wantNode := range []int{0, 0, 0, 1, 1, 1, 2} {
		if got := tp.NodeOf(rank); got != wantNode {
			t.Fatalf("NodeOf(%d) = %d, want %d", rank, got, wantNode)
		}
	}
	if got := tp.Nodes(7); got != 3 {
		t.Fatalf("Nodes(7) = %d, want 3 (ragged last node counts)", got)
	}
	if got := tp.Nodes(6); got != 2 {
		t.Fatalf("Nodes(6) = %d, want 2", got)
	}
	if got := tp.LeaderOf(6); got != 6 || !tp.IsLeader(6) {
		t.Fatalf("rank 6 must lead its singleton ragged node (leader %d)", got)
	}
	if tp.IsLeader(4) || tp.LeaderOf(4) != 3 {
		t.Fatalf("rank 4's leader = %d, want 3", tp.LeaderOf(4))
	}
	if !tp.SameNode(3, 5) || tp.SameNode(2, 3) {
		t.Fatal("SameNode boundaries wrong at the 3/3/1 grouping")
	}

	// The zero value is the flat world: every rank its own node and leader.
	var flat Topology
	if flat.NodeOf(5) != 5 || !flat.IsLeader(5) || flat.SameNode(1, 2) {
		t.Fatal("zero-value Topology must place every rank on its own node")
	}
	if got := flat.Nodes(4); got != 4 {
		t.Fatalf("flat Nodes(4) = %d, want 4", got)
	}
}

// TestNodeAlltoallv: payload travels between co-located ranks only; the
// world stays synchronous; an off-node row is a structured error.
func TestNodeAlltoallv(t *testing.T) {
	tp := Topology{RanksPerNode: 2}
	_, err := Run(6, func(c *Comm) error {
		send := make([][]uint64, c.Size())
		for j := range send {
			if tp.SameNode(c.Rank(), j) {
				send[j] = []uint64{uint64(c.Rank()*100 + j)}
			}
		}
		recv, err := NodeAlltoallv(c, tp, send)
		if err != nil {
			return err
		}
		for i, part := range recv {
			if tp.SameNode(c.Rank(), i) {
				want := []uint64{uint64(i*100 + c.Rank())}
				if !reflect.DeepEqual(part, want) {
					return fmt.Errorf("rank %d recv[%d] = %v, want %v", c.Rank(), i, part, want)
				}
			} else if len(part) != 0 {
				return fmt.Errorf("rank %d received off-node payload from %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeAlltoallvRejectsOffNodeRow(t *testing.T) {
	tp := Topology{RanksPerNode: 2}
	_, errs, err := RunRanks(4, Options{}, func(c *Comm) error {
		send := make([][]byte, c.Size())
		if c.Rank() == 1 {
			send[3] = []byte{0xff} // rank 1 (node 0) → rank 3 (node 1): illegal
		}
		// The offender is rejected before it deposits; it exits with the
		// error, poisoning the world so its peers fail with ErrPeerDead
		// instead of waiting forever on the missing deposit.
		_, err := c.NodeAlltoallvBytes(tp, send)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "off-node") {
		t.Fatalf("offending rank error = %v, want the off-node rejection", errs[1])
	}
	for _, r := range []int{0, 2, 3} {
		if !errors.Is(errs[r], ErrPeerDead) {
			t.Fatalf("rank %d error = %v, want ErrPeerDead", r, errs[r])
		}
	}
}

// TestWireNodeCrediting: with RanksPerNode set, intra-node payload pays no
// emulated wire time, off-node payload does — per byte and per message.
func TestWireNodeCrediting(t *testing.T) {
	const perMsg = 2 * time.Millisecond
	run := func(ranksPerNode, dest int) time.Duration {
		opt := Options{
			RanksPerNode: ranksPerNode,
			WireMsg:      func(msgs int) time.Duration { return time.Duration(msgs) * perMsg },
		}
		start := time.Now()
		_, err := RunWithOptions(4, opt, func(c *Comm) error {
			send := make([][]uint64, c.Size())
			if c.Rank() == 0 {
				send[dest] = []uint64{1, 2, 3}
			}
			_, err := Alltoallv(c, send)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Rank 0 → rank 3 crosses nodes (2-wide nodes): one fabric message.
	if el := run(2, 3); el < perMsg {
		t.Fatalf("off-node payload finished in %v, want >= %v of wire time", el, perMsg)
	}
	// Rank 0 → rank 1 stays on node: no fabric traffic, no wire sleep.
	if el := run(2, 1); el >= perMsg {
		t.Fatalf("intra-node payload took %v, want < %v (wire must not charge it)", el, perMsg)
	}
	// Flat accounting (no topology): the same neighbor transfer is fabric.
	if el := run(0, 1); el < perMsg {
		t.Fatalf("flat-world payload finished in %v, want >= %v", el, perMsg)
	}
}
