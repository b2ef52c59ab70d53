package mpisim

import (
	"fmt"
	"time"
)

// NetModel evaluates the time of collectives over a recorded traffic matrix
// using the standard α–β model on a non-blocking fat tree: a node's cost is
// bounded by its injection bandwidth (shared by all its ranks), traffic
// between ranks of the same node is free (it moves over shared memory /
// NVLink, not the fabric), and each of the P-1 pairwise exchange rounds of
// a large Alltoallv pays one latency α.
//
// Summit numbers (§V-A): dual-rail EDR Infiniband, 23 GB/s injection per
// node, 6 GPU ranks (or 42 CPU ranks) per node.
type NetModel struct {
	// RanksPerNode maps rank → node as node = rank / RanksPerNode.
	RanksPerNode int
	// InjectionGBs is per-node injection bandwidth (GB/s, one direction).
	InjectionGBs float64
	// Efficiency is the fraction of injection bandwidth a large Alltoallv
	// actually sustains (0 or unset means 1.0). Many-to-many exchanges on
	// fat trees realize only a few percent of nominal injection bandwidth
	// because of incast congestion and per-pair rendezvous overheads; the
	// paper's measured exchange times (Fig. 7: ≈0.6 s for C. elegans and
	// ≈25 s for H. sapiens k-mer mode at 64 nodes) calibrate Summit's
	// value to ≈0.04.
	Efficiency float64
	// LatencyUs is the per-message-round latency α in microseconds.
	LatencyUs float64
}

// Validate reports configuration errors.
func (n NetModel) Validate() error {
	switch {
	case n.RanksPerNode <= 0:
		return fmt.Errorf("mpisim: RanksPerNode=%d", n.RanksPerNode)
	case n.InjectionGBs <= 0:
		return fmt.Errorf("mpisim: InjectionGBs=%f", n.InjectionGBs)
	case n.Efficiency < 0 || n.Efficiency > 1:
		return fmt.Errorf("mpisim: Efficiency=%f outside [0,1]", n.Efficiency)
	case n.LatencyUs < 0:
		return fmt.Errorf("mpisim: LatencyUs=%f", n.LatencyUs)
	}
	return nil
}

// effectiveGBs returns the realized per-node bandwidth.
func (n NetModel) effectiveGBs() float64 {
	if n.Efficiency == 0 {
		return n.InjectionGBs
	}
	return n.InjectionGBs * n.Efficiency
}

// NodeOf returns the node hosting rank r.
func (n NetModel) NodeOf(r int) int { return r / n.RanksPerNode }

// Nodes returns the node count for a world of size p.
func (n NetModel) Nodes(p int) int { return (p + n.RanksPerNode - 1) / n.RanksPerNode }

// Topology returns the node grouping the model describes, for the
// hierarchical exchange.
func (n NetModel) Topology() Topology { return Topology{RanksPerNode: n.RanksPerNode} }

// CollectiveTime evaluates one traffic matrix. bytes[i][j] is the payload
// rank i sent to rank j; entries between co-located ranks are excluded from
// fabric traffic. The latency term charges one α per pairwise exchange
// round among the ranks that actually touch the fabric: a flat P×P
// Alltoallv with payload everywhere pays α(P−1), a leader-only exchange
// pays α(L−1), and a purely intra-node collective pays nothing — which is
// exactly the message-count term a hierarchical exchange trades bandwidth
// slack for.
func (n NetModel) CollectiveTime(bytes [][]uint64) time.Duration {
	if err := n.Validate(); err != nil {
		panic(err)
	}
	p := len(bytes)
	if p == 0 {
		return 0
	}
	nodes := n.Nodes(p)
	out := make([]uint64, nodes)
	in := make([]uint64, nodes)
	active := make([]bool, p) // ranks with any fabric in/out traffic
	for i, row := range bytes {
		ni := n.NodeOf(i)
		for j, b := range row {
			nj := n.NodeOf(j)
			if ni == nj || b == 0 {
				continue // intra-node: not fabric traffic
			}
			out[ni] += b
			in[nj] += b
			active[i] = true
			active[j] = true
		}
	}
	var worst uint64
	for i := 0; i < nodes; i++ {
		if out[i] > worst {
			worst = out[i]
		}
		if in[i] > worst {
			worst = in[i]
		}
	}
	fabricRanks := 0
	for _, a := range active {
		if a {
			fabricRanks++
		}
	}
	bw := float64(worst) / (n.effectiveGBs() * 1e9)
	var lat float64
	if fabricRanks > 1 {
		lat = n.LatencyUs * 1e-6 * float64(fabricRanks-1)
	}
	return time.Duration((bw + lat) * float64(time.Second))
}

// VolumeStats summarizes a traffic matrix.
type VolumeStats struct {
	// TotalBytes is the whole-matrix payload including intra-node traffic.
	TotalBytes uint64
	// FabricBytes excludes intra-node traffic.
	FabricBytes uint64
	// MaxNodeBytes is the busiest node's max(in, out) fabric traffic.
	MaxNodeBytes uint64
}

// Volumes computes VolumeStats for a traffic matrix.
func (n NetModel) Volumes(bytes [][]uint64) VolumeStats {
	var vs VolumeStats
	nodes := n.Nodes(len(bytes))
	out := make([]uint64, nodes)
	in := make([]uint64, nodes)
	for i, row := range bytes {
		ni := n.NodeOf(i)
		for j, b := range row {
			vs.TotalBytes += b
			if nj := n.NodeOf(j); nj != ni {
				vs.FabricBytes += b
				out[ni] += b
				in[nj] += b
			}
		}
	}
	for i := 0; i < nodes; i++ {
		if out[i] > vs.MaxNodeBytes {
			vs.MaxNodeBytes = out[i]
		}
		if in[i] > vs.MaxNodeBytes {
			vs.MaxNodeBytes = in[i]
		}
	}
	return vs
}
