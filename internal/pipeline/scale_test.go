package pipeline

import (
	"math"
	"slices"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/mpisim"
)

// TestAtScaleSplit pins the split Result.AtScale reprices, on one-round
// runs of 12 ranks on 2 nodes of 6. On the stock layouts the fixed costs
// are the ones counted: a parse launch and three staging legs (input in,
// send rows out, received rows in) a rank a round, at least one count
// launch, the payload Alltoallv's α over the ranks that touch the fabric
// and its frame headers (6·6 frames a node each way), and the whole of
// every collective that carries no payload; only the CPU has a load term.
// With every fixed cost the layout sets zeroed (launch, link latency, α),
// projecting to twice the input doubles each GPU phase and the staging,
// the Alltoallv doubles but for its frame headers, and the CPU's per-item
// term grows by 2^(1+PerItemExp) while its roofline doubles: its count
// then prices as a run over the input twice over does, to 0.1 %. A
// budgeted run projected to twice its input takes about twice the rounds.
func TestAtScaleSplit(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cpu := cluster.SummitCPU(2)
	cpu.RanksPerNode, cpu.Net.RanksPerNode = 6, 6
	gpu := smallGPULayout(2)
	zeroed := func(l cluster.Layout) cluster.Layout {
		l.Net.LatencyUs = 0
		if l.GPU != nil {
			g := *l.GPU
			g.LaunchOverheadUs, g.LinkLatencyUs = 0, 0
			l.GPU = &g
		}
		return l
	}
	const us = time.Microsecond
	for _, tc := range []struct {
		name   string
		layout cluster.Layout
		zeroed bool
	}{
		{"gpu", gpu, false},
		{"cpu", cpu, false},
		{"gpu-zeroed", zeroed(gpu), true},
		{"cpu-zeroed", zeroed(cpu), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var launch, leg time.Duration
			exp := 0.0
			if g := tc.layout.GPU; g != nil {
				launch, leg = time.Duration(g.LaunchOverheadUs)*us, time.Duration(g.LinkLatencyUs)*us
			} else {
				exp = tc.layout.CPU.PerItemExp
			}
			for _, mode := range []Mode{KmerMode, SupermerMode} {
				const m = 6 // ranks a node
				p := tc.layout.Ranks()
				exchange := tc.layout.Net.CollectiveTime(mpisim.TraceEntry{
					FabricRanks: p, Volume: mpisim.VolumeStats{MaxNodeBytes: m * uint64(p-m) * frameHeader(mode)},
				})
				cfg := Default(tc.layout, mode)
				res, err := Run(cfg, reads)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != 1 {
					t.Fatalf("%v: %d rounds, want 1", mode, res.Rounds)
				}
				c := res.costs
				if c.parse.fixed != launch || c.stage.fixed != 3*leg || c.alltoallv.fixed != exchange {
					t.Fatalf("%v: fixed parse %v, staging %v, alltoallv %v; want %v, %v, %v",
						mode, c.parse.fixed, c.stage.fixed, c.alltoallv.fixed, launch, 3*leg, exchange)
				}
				if (launch > 0) != (c.count.fixed > 0) || launch > 0 && c.count.fixed%launch != 0 {
					t.Fatalf("%v: fixed count %v, want a positive multiple of %v, or 0 without", mode, c.count.fixed, launch)
				}
				if c.control.total <= 0 || c.control.fixed != c.control.total {
					t.Fatalf("%v: the collectives without payload cost %v, fixed %v: want all of a positive cost fixed", mode, c.control.total, c.control.fixed)
				}
				if cpuRun := exp > 0; (c.parse.load > 0) != cpuRun || (c.count.load > 0) != cpuRun {
					t.Fatalf("%v: load terms %v and %v on the CPU %v", mode, c.parse.load, c.count.load, cpuRun)
				}
				if !tc.zeroed {
					continue
				}

				at := res.AtScale(2 * float64(res.InputBases))
				if at.Scale != 2 || at.Rounds != 1 {
					t.Fatalf("%v: projected at %v× over %d rounds, want 2× over 1", mode, at.Scale, at.Rounds)
				}
				if at.Staging != 2*res.Staging || at.AlltoallvTime != 2*res.AlltoallvTime-exchange {
					t.Fatalf("%v: staging %v → %v, alltoallv %v → %v: want doubled, the alltoallv but for its %v of frame headers",
						mode, res.Staging, at.Staging, res.AlltoallvTime, at.AlltoallvTime, exchange)
				}
				if other := res.Modeled.Exchange - res.Staging - res.AlltoallvTime; at.Modeled.Exchange-at.Staging-at.AlltoallvTime != other {
					t.Fatalf("%v: the collectives without payload cost %v, projected %v", mode, other, at.Modeled.Exchange-at.Staging-at.AlltoallvTime)
				}
				for _, ph := range []struct {
					name            string
					ran, proj, load time.Duration
				}{
					{"parse", res.Modeled.Parse, at.Modeled.Parse, c.parse.load},
					{"count", res.Modeled.Count, at.Modeled.Count, c.count.load},
				} {
					want := 2*float64(ph.ran-ph.load) + math.Pow(2, 1+exp)*float64(ph.load)
					if math.Abs(float64(ph.proj)-want) > 1 {
						t.Fatalf("%v: %s %v (load %v) projects to %v, want %v", mode, ph.name, ph.ran, ph.load, ph.proj, time.Duration(want))
					}
				}
				if exp == 0 {
					continue
				}
				twice, err := Run(cfg, append(slices.Clip(reads), reads...))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := at.Modeled.Count.Seconds(), twice.Modeled.Count.Seconds(); math.Abs(got/want-1) > 0.001 {
					t.Fatalf("%v: count projected to twice the input %v, a run over it %v", mode, at.Modeled.Count, twice.Modeled.Count)
				}
			}
		})
	}

	// Under a memory budget the rounds grow with the bases: twice the input
	// takes about twice the rounds, and its fixed costs with them.
	cfg := Default(gpu, KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 1_000)
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	at := res.AtScale(2 * float64(res.InputBases))
	if res.Rounds < 2 || at.Rounds < 2*res.Rounds-1 || at.Rounds > 2*res.Rounds+1 {
		t.Fatalf("%d rounds project to %d at twice the input", res.Rounds, at.Rounds)
	}
	c := res.costs
	want := 2*(res.Modeled.Parse-c.parse.fixed) + time.Duration(float64(c.parse.fixed)*(float64(at.Rounds)/float64(res.Rounds)))
	if at.Modeled.Parse != want {
		t.Fatalf("parse %v (fixed %v) over %d rounds projects to %v over %d, want %v", res.Modeled.Parse, c.parse.fixed, res.Rounds, at.Modeled.Parse, at.Rounds, want)
	}
}
