package mpisim

import "fmt"

// Topology groups a world's ranks into nodes of RanksPerNode consecutive
// ranks — the machine hierarchy the fold and the leader-routed projection
// read: ranks of one node share NVLink/host memory (near-free), nodes share
// the fabric.
// When RanksPerNode does not divide the world the last node is ragged
// (fewer members); its first rank is still its leader. The zero value
// (RanksPerNode 0 or 1) puts every rank on its own node, which makes every
// off-rank transfer fabric traffic — the flat accounting.
type Topology struct {
	// RanksPerNode is the node width. Values <= 1 mean one rank per node.
	RanksPerNode int
}

// span returns the effective node width (>= 1).
func (t Topology) span() int {
	if t.RanksPerNode <= 1 {
		return 1
	}
	return t.RanksPerNode
}

// NodeOf returns the node index of a rank.
func (t Topology) NodeOf(rank int) int { return rank / t.span() }

// Nodes returns the node count of a p-rank world (ceiling division: a
// ragged trailing node counts).
func (t Topology) Nodes(p int) int {
	if p <= 0 {
		return 0
	}
	return (p + t.span() - 1) / t.span()
}

// Members returns how many ranks of a p-rank world node n holds: the node
// width, or fewer on a ragged last node.
func (t Topology) Members(n, p int) int { return min(t.span(), p-n*t.span()) }

// LeaderOf returns the leader of a rank's node: the node's first rank.
func (t Topology) LeaderOf(rank int) int { return t.NodeOf(rank) * t.span() }

// IsLeader reports whether a rank leads its node.
func (t Topology) IsLeader(rank int) bool { return t.LeaderOf(rank) == rank }

// SameNode reports whether two ranks are co-located.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// nodeRowsOK rejects a node-scoped collective's send vector when it
// carries payload to an off-node rank: the node tier cannot reach it.
func nodeRowsOK[T any](t Topology, rank int, send [][]T) error {
	for j, p := range send {
		if len(p) > 0 && !t.SameNode(rank, j) {
			return fmt.Errorf("mpisim: node-scoped collective: rank %d sent %d-item payload to off-node rank %d",
				rank, len(p), j)
		}
	}
	return nil
}

// NodeAlltoallv is Alltoallv constrained to the node tier of the given
// topology: every rank of the world participates (the call is
// world-synchronous — semantically a set of concurrent per-node
// sub-communicator collectives sharing one barrier, which keeps the
// same-order-everywhere collective rule trivially satisfied), but payload
// may only travel between co-located ranks; a non-empty off-node row is
// rejected. The traffic is recorded under the "node_alltoallv" trace op —
// all intra-node when t is the world's topology, so the α–β model prices it
// at zero fabric time: the NVLink tier a leader-routed exchange would
// gather and scatter over (LeaderRouted prices that route without running
// it; the benchmark module probes this collective).
func NodeAlltoallv[T Unit](c *Comm, t Topology, send [][]T) ([][]T, error) {
	if err := c.checkLen(len(send)); err != nil {
		return nil, err
	}
	if err := nodeRowsOK(t, c.rank, send); err != nil {
		return nil, err
	}
	if err := c.syncReady(); err != nil {
		return nil, err
	}
	return alltoallv(c, "node_alltoallv", send)
}

// NodeAlltoallvBytes forwards to NodeAlltoallv for the separately built
// bench/ module.
func (c *Comm) NodeAlltoallvBytes(t Topology, send [][]byte) ([][]byte, error) {
	return NodeAlltoallv(c, t, send)
}

// LeaderRouted returns collective e, folded under t, as the leader
// Alltoallv of a leader-routed exchange folds it: every off-node frame
// travels inside a record behind a hdr-byte header, gathered onto its
// node's leader and scattered off the destination's over the node tier
// (free), so the fabric carries one L×L Alltoallv between the L leaders.
// Each node's fabric bytes gain hdr per (member, off-node rank) pair in
// each direction — m·(P−m)·hdr on a node of m members — and the leaders are
// the fabric ranks (none on one node). Same-node frames never reach the
// fabric either way.
func (t Topology) LeaderRouted(e TraceEntry, hdr uint64) TraceEntry {
	p := uint64(e.Ranks)
	routed := TraceEntry{Op: e.Op, Ranks: e.Ranks, NodeBytes: make([]uint64, len(e.NodeBytes))}
	routed.Volume.FabricBytes = e.Volume.FabricBytes
	for n, b := range e.NodeBytes {
		m := uint64(t.Members(n, e.Ranks))
		hdrs := hdr * m * (p - m)
		routed.Volume.FabricBytes += hdrs
		routed.NodeBytes[n] = b + hdrs
		routed.Volume.MaxNodeBytes = max(routed.Volume.MaxNodeBytes, b+hdrs)
	}
	routed.Volume.TotalBytes = routed.Volume.FabricBytes
	if l := len(e.NodeBytes); l > 1 {
		routed.FabricRanks = l
	}
	return routed
}
