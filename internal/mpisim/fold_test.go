package mpisim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refVolumes and refCollectiveTime are the matrix-based model the fold
// replaced, kept as the reference it must match exactly: bytes[i][j] is the
// payload rank i sent to rank j, and ranks share a node when they fall in
// the same run of width consecutive ranks (width <= 1: one rank per node).
func refNodeOf(width, r int) int { return r / max(width, 1) }

func refVolumes(width int, bytes [][]uint64) VolumeStats {
	var vs VolumeStats
	nodes := refNodeOf(width, len(bytes)-1) + 1
	out := make([]uint64, nodes)
	in := make([]uint64, nodes)
	for i, row := range bytes {
		ni := refNodeOf(width, i)
		for j, b := range row {
			vs.TotalBytes += b
			if nj := refNodeOf(width, j); nj != ni {
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

func refCollectiveTime(n NetModel, width int, bytes [][]uint64) time.Duration {
	p := len(bytes)
	if p == 0 {
		return 0
	}
	nodes := refNodeOf(width, p-1) + 1
	out := make([]uint64, nodes)
	in := make([]uint64, nodes)
	active := make([]bool, p) // ranks with any fabric in/out traffic
	for i, row := range bytes {
		ni := refNodeOf(width, i)
		for j, b := range row {
			nj := refNodeOf(width, j)
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

// foldMatrix folds a traffic matrix the way a collective folds its
// deposits.
func foldMatrix(topo Topology, bytes [][]uint64) TraceEntry {
	f := newFold("matrix", topo, len(bytes))
	for i, row := range bytes {
		for j, b := range row {
			f.add(i, j, b)
		}
	}
	return f.entry()
}

// checkFold runs one world in which rank i sends m[i][j] bytes to rank j,
// once as a byte Alltoallv and once as a word IAlltoallv of as many words,
// and compares both folded trace entries, and the time the model gives
// them, with the matrix reference.
func checkFold(width int, m [][]uint64) error {
	p := len(m)
	trace, err := RunWithOptions(p, Options{RanksPerNode: width}, func(c *Comm) error {
		bytes := make([][]byte, p)
		words := make([][]uint64, p)
		for j, n := range m[c.Rank()] {
			bytes[j] = make([]byte, n)
			words[j] = make([]uint64, n)
		}
		recv, err := Alltoallv(c, bytes)
		if err != nil {
			return err
		}
		wrecv, err := IAlltoallv(c, words).Wait()
		if err != nil {
			return err
		}
		for i := range recv {
			if want := int(m[i][c.Rank()]); len(recv[i]) != want || len(wrecv[i]) != want {
				return fmt.Errorf("rank %d got %d bytes, %d words from rank %d, want %d", c.Rank(), len(recv[i]), len(wrecv[i]), i, want)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(trace) != 2 {
		return fmt.Errorf("trace has %d entries, want 2", len(trace))
	}
	nm := NetModel{RanksPerNode: max(width, 1), InjectionGBs: 23, Efficiency: 0.04, LatencyUs: 2}
	words := make([][]uint64, p)
	for i, row := range m {
		words[i] = make([]uint64, p)
		for j, n := range row {
			words[i][j] = 8 * n
		}
	}
	for k, ref := range [][][]uint64{m, words} {
		e := trace[k]
		if e.Op != "alltoallv" {
			return fmt.Errorf("entry %d is %q", k, e.Op)
		}
		if want := refVolumes(width, ref); e.Volume != want {
			return fmt.Errorf("entry %d volume %+v, want %+v", k, e.Volume, want)
		}
		if want := refFabricRanks(width, ref); e.FabricRanks != want {
			return fmt.Errorf("entry %d: %d fabric ranks, want %d", k, e.FabricRanks, want)
		}
		if got, want := nm.CollectiveTime(e), refCollectiveTime(nm, width, ref); got != want {
			return fmt.Errorf("entry %d costs %v, want %v", k, got, want)
		}
		if err := checkLeaderRouted(nm, width, e, ref); err != nil {
			return fmt.Errorf("entry %d: %v", k, err)
		}
	}
	return nil
}

// refHeader is the record header the leader-routed references carry.
const refHeader = 8

// refLeaderMatrix routes a traffic matrix through node leaders: every
// off-node (src, dest) frame, empty or not, travels behind a refHeader-byte
// header from src's leader to dest's, so the routed matrix holds leader to
// leader traffic only; same-node frames never reach it.
func refLeaderMatrix(width int, bytes [][]uint64) [][]uint64 {
	w := max(width, 1)
	routed := make([][]uint64, len(bytes))
	for i := range routed {
		routed[i] = make([]uint64, len(bytes))
	}
	for i, row := range bytes {
		for j, b := range row {
			if refNodeOf(width, i) != refNodeOf(width, j) {
				routed[i/w*w][j/w*w] += refHeader + b
			}
		}
	}
	return routed
}

// checkLeaderRouted compares the leader-routed projection of folded entry
// e — its volume, busiest node, fabric ranks and price — with the fold of
// the routed reference matrix, and each node's bytes with the routed
// per-node reference.
func checkLeaderRouted(nm NetModel, width int, e TraceEntry, bytes [][]uint64) error {
	topo := Topology{RanksPerNode: width}
	got := topo.LeaderRouted(e, refHeader)
	routed := refLeaderMatrix(width, bytes)
	if want := refVolumes(width, routed); got.Volume != want {
		return fmt.Errorf("leader-routed volume %+v, want %+v", got.Volume, want)
	}
	if want := refFabricRanks(width, routed); got.FabricRanks != want {
		return fmt.Errorf("leader-routed: %d fabric ranks, want %d", got.FabricRanks, want)
	}
	if want := foldMatrix(topo, routed).NodeBytes; !slices.Equal(got.NodeBytes, want) {
		return fmt.Errorf("leader-routed node bytes %v, want %v", got.NodeBytes, want)
	}
	if g, want := nm.CollectiveTime(got), refCollectiveTime(nm, width, routed); g != want {
		return fmt.Errorf("leader-routed cost %v, want %v", g, want)
	}
	return nil
}

// refFabricRanks counts the ranks that send or receive a fabric byte.
func refFabricRanks(width int, bytes [][]uint64) int {
	active := map[int]bool{}
	for i, row := range bytes {
		for j, b := range row {
			if b > 0 && refNodeOf(width, i) != refNodeOf(width, j) {
				active[i], active[j] = true, true
			}
		}
	}
	return len(active)
}

// TestTrafficFoldMatchesMatrix holds the fold, and its leader-routed
// projection, to the matrix model over random traffic with silent ranks,
// self-sends and empty pairs, at node widths from flat to one node holding
// the whole world, ragged last nodes included.
func TestTrafficFoldMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 7, 12, 13} {
		for _, width := range []int{0, 1, 2, 3, 6, p, p + 1} {
			for trial := 0; trial < 4; trial++ {
				m := make([][]uint64, p)
				for i := range m {
					m[i] = make([]uint64, p)
					if rng.Intn(4) == 0 {
						continue // a rank with nothing to send
					}
					for j := range m[i] {
						if rng.Intn(3) > 0 {
							m[i][j] = uint64(rng.Intn(200))
						}
					}
				}
				if err := checkFold(width, m); err != nil {
					t.Fatalf("P=%d width=%d trial %d: %v", p, width, trial, err)
				}
			}
		}
	}
}

// FuzzTrafficFold drives the same comparison, the leader-routed projection
// included, from arbitrary input: the first two bytes pick P (1..13) and
// the node width (0..P+1, most of which leave a ragged last node), the rest
// fill the matrix row by row, one byte a pair (zero once the input runs
// out).
func FuzzTrafficFold(f *testing.F) {
	f.Add([]byte{11, 6, 1, 2, 3, 0, 255, 7})
	f.Add([]byte{12, 5, 3, 0, 9, 1, 200, 4, 4, 0, 17, 2, 8, 8, 1})
	f.Add([]byte{0, 0, 9})
	f.Add([]byte{12, 14, 5, 5, 5, 5})
	f.Add([]byte{6, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := 1 + int(data[0])%13
		width := int(data[1]) % (p + 2)
		cells := data[2:]
		m := make([][]uint64, p)
		for i := range m {
			m[i] = make([]uint64, p)
			for j := range m[i] {
				if k := i*p + j; k < len(cells) {
					m[i][j] = uint64(cells[k])
				}
			}
		}
		if err := checkFold(width, m); err != nil {
			t.Fatalf("P=%d width=%d: %v", p, width, err)
		}
	})
}
