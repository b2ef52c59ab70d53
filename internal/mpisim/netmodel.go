package mpisim

import (
	"fmt"
	"time"
)

// NetModel evaluates the time of collectives from their folded traces
// (TraceEntry) using the standard α–β model on a non-blocking fat tree: a
// node's cost is bounded by its injection bandwidth (shared by all its
// ranks), traffic between ranks of the same node is free (it moves over
// shared memory / NVLink, not the fabric), and each of the P-1 pairwise
// exchange rounds of a large Alltoallv pays one latency α.
//
// Summit numbers (§V-A): dual-rail EDR Infiniband, 23 GB/s injection per
// node, 6 GPU ranks (or 42 CPU ranks) per node.
type NetModel struct {
	// RanksPerNode is the node width of Topology(). The traces the model
	// prices must be folded under the same width (Options.RanksPerNode).
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

// Topology returns the node grouping the model describes, for folding the
// traces it prices (pass RanksPerNode as Options.RanksPerNode) and for
// projecting them leader-routed (Topology.LeaderRouted).
func (n NetModel) Topology() Topology { return Topology{RanksPerNode: n.RanksPerNode} }

// CollectiveTime evaluates one folded collective: the busiest node's fabric
// bytes over the realized bandwidth, plus one α per pairwise exchange round
// among the ranks that actually touch the fabric. A flat P×P Alltoallv
// with payload everywhere pays α(P−1), a leader-only exchange pays α(L−1),
// and a purely intra-node collective pays nothing — which is exactly the
// message-count term a leader-routed exchange trades bandwidth slack for.
// Only fabric bytes are priced: on a one-node world every collective is
// free, so a run's modeled exchange there is its host staging alone (0 on
// the CPU engine), however many bytes its ranks trade.
func (n NetModel) CollectiveTime(e TraceEntry) time.Duration {
	if err := n.Validate(); err != nil {
		panic(err)
	}
	bw := float64(e.Volume.MaxNodeBytes) / (n.effectiveGBs() * 1e9)
	var lat float64
	if e.FabricRanks > 1 {
		lat = n.LatencyUs * 1e-6 * float64(e.FabricRanks-1)
	}
	return time.Duration((bw + lat) * float64(time.Second))
}
