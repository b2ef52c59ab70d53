package mpisim

import "fmt"

// Topology groups a world's ranks into nodes of RanksPerNode consecutive
// ranks — the machine hierarchy the two-stage exchange exploits: ranks of
// one node share NVLink/host memory (near-free), nodes share the fabric.
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
// all intra-node, so the α–β model prices it at zero fabric time: this is
// the NVLink tier the hierarchical exchange uses for its gather and scatter
// stages.
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
	all, err := exchange(c, send)
	if err != nil {
		return nil, err
	}
	recordMatrix(c, "node_alltoallv", all)
	return column(c, all), nil
}

// NodeAlltoallvBytes forwards to NodeAlltoallv for the separately built
// bench/ module.
func (c *Comm) NodeAlltoallvBytes(t Topology, send [][]byte) ([][]byte, error) {
	return NodeAlltoallv(c, t, send)
}
