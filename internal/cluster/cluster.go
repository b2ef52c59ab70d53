// Package cluster describes the machines the experiments model — primarily
// Summit at OLCF (§V-A): IBM AC922 nodes with 2×22-core Power9 CPUs (42
// cores usable for ranks), 6 NVIDIA V100 GPUs, NVLink at 25 GB/s per link,
// and a Mellanox dual-rail EDR fat tree with 23 GB/s per-node injection
// bandwidth.
package cluster

import (
	"fmt"
	"math"
	"time"

	"dedukt/internal/gpusim"
	"dedukt/internal/mpisim"
)

// CPUModel is the scalar cost model for CPU-rank computation: the CPU
// pipelines execute real Go code and account abstract ops and touched bytes
// with the same constants as the GPU kernels; this model converts them to
// seconds on a Power9 core.
type CPUModel struct {
	// ClockGHz is the core clock.
	ClockGHz float64
	// IPC is the effective (sustained) abstract ops per cycle on this
	// pointer-chasing, hash-heavy workload.
	IPC float64
	// MemBandwidthGBs is the per-node memory bandwidth, shared by all
	// ranks on the node.
	MemBandwidthGBs float64
	// CoresPerNode is how many ranks share the node's bandwidth.
	CoresPerNode int
	// PerItemBaseNs and PerItemExp calibrate the baseline's measured
	// per-k-mer software overhead: cost_ns(items) = Base · items^Exp,
	// where items is the rank's per-phase k-mer load. The diBELLA-derived
	// baseline the paper measures spends most of its time in multi-round
	// buffer management, Bloom-filter passes and provenance bookkeeping
	// that an abstract op count cannot capture, and its per-k-mer cost
	// grows with per-rank load (memory pressure, extra rounds). The two
	// published operating points — Fig. 6a's ≈11× small-dataset speedups
	// (≈4.5 µs/k-mer at ≈0.6 M k-mers/rank) and Fig. 3a's ≈2,900 s
	// H. sapiens compute (≈23 µs/k-mer at 62 M k-mers/rank) — fix the
	// power law.
	PerItemBaseNs float64
	PerItemExp    float64
}

// Validate reports configuration errors.
func (m CPUModel) Validate() error {
	if m.ClockGHz <= 0 || m.IPC <= 0 || m.MemBandwidthGBs <= 0 || m.CoresPerNode <= 0 ||
		m.PerItemBaseNs < 0 || m.PerItemExp < 0 || m.PerItemExp >= 1 {
		return fmt.Errorf("cluster: invalid CPU model %+v", m)
	}
	return nil
}

// ItemCostNs returns the calibrated per-k-mer overhead at a given per-rank
// per-phase load.
func (m CPUModel) ItemCostNs(items uint64) float64 {
	if items == 0 || m.PerItemBaseNs == 0 {
		return 0
	}
	return m.PerItemBaseNs * math.Pow(float64(items), m.PerItemExp)
}

// RankTime converts one rank's accounted work into seconds: the roofline
// of its op throughput and its share of node memory bandwidth, plus the
// calibrated per-item software overhead at this load (items × ItemCostNs(items)).
// The overhead grows as items^(1+PerItemExp), so a rank with s times the
// items pays s^(1+PerItemExp) times it: the power law a projection to a
// larger input reads the baseline at (pipeline.Result.AtScale).
func (m CPUModel) RankTime(ops, bytes, items uint64) time.Duration {
	compute := float64(ops) / (m.ClockGHz * 1e9 * m.IPC)
	mem := float64(bytes) / (m.MemBandwidthGBs * 1e9 / float64(m.CoresPerNode))
	t := compute
	if mem > t {
		t = mem
	}
	t += float64(items) * m.ItemCostNs(items) * 1e-9
	return time.Duration(t * float64(time.Second))
}

// Power9 returns the Summit node CPU model. See CPUModel.PerItemBaseNs for
// the calibration of the per-item power law (39 ns · items^0.357 spans
// ≈4.5 µs at 0.6 M k-mers/rank to ≈23 µs at 62 M k-mers/rank, the paper's
// two published operating points).
func Power9() CPUModel {
	return CPUModel{
		ClockGHz: 3.07, IPC: 2.5, MemBandwidthGBs: 340, CoresPerNode: 42,
		PerItemBaseNs: 39, PerItemExp: 0.357,
	}
}

// Layout is a concrete machine configuration for one run: how many nodes,
// how many ranks per node, and the compute + network models.
type Layout struct {
	// Name labels the layout in reports (e.g. "summit-gpu-64").
	Name string
	// Nodes is the node count.
	Nodes int
	// RanksPerNode is MPI ranks per node (6 for GPU runs, 42 for CPU).
	RanksPerNode int
	// Net is the fabric model.
	Net mpisim.NetModel
	// GPU is non-nil for GPU layouts: the per-rank device.
	GPU *gpusim.Config
	// CPU is non-nil for CPU layouts.
	CPU *CPUModel
}

// Ranks returns the world size.
func (l Layout) Ranks() int { return l.Nodes * l.RanksPerNode }

// Validate reports configuration errors.
func (l Layout) Validate() error {
	if l.Nodes <= 0 || l.RanksPerNode <= 0 {
		return fmt.Errorf("cluster: layout %q has %d nodes × %d ranks", l.Name, l.Nodes, l.RanksPerNode)
	}
	if (l.GPU == nil) == (l.CPU == nil) {
		return fmt.Errorf("cluster: layout %q must have exactly one of GPU or CPU model", l.Name)
	}
	if l.GPU != nil {
		if err := l.GPU.Validate(); err != nil {
			return err
		}
	}
	if l.CPU != nil {
		if err := l.CPU.Validate(); err != nil {
			return err
		}
	}
	return l.Net.Validate()
}

// summitNet returns the Summit fabric model for the given ranks per node.
// Efficiency is calibrated against the paper's measured Alltoallv times
// (see mpisim.NetModel.Efficiency).
func summitNet(ranksPerNode int) mpisim.NetModel {
	return mpisim.NetModel{RanksPerNode: ranksPerNode, InjectionGBs: 23, Efficiency: 0.04, LatencyUs: 2}
}

// SummitGPU returns the paper's GPU configuration: 6 MPI ranks per node,
// one V100 each (§V-A).
func SummitGPU(nodes int) Layout {
	gpu := gpusim.V100()
	return Layout{
		Name:         fmt.Sprintf("summit-gpu-%d", nodes),
		Nodes:        nodes,
		RanksPerNode: 6,
		Net:          summitNet(6),
		GPU:          &gpu,
	}
}

// SummitCPU returns the paper's CPU baseline configuration: 42 ranks per
// node, one Power9 core each.
func SummitCPU(nodes int) Layout {
	cpu := Power9()
	return Layout{
		Name:         fmt.Sprintf("summit-cpu-%d", nodes),
		Nodes:        nodes,
		RanksPerNode: 42,
		Net:          summitNet(42),
		CPU:          &cpu,
	}
}
