package pipeline

import (
	"math"
	"time"
)

// split is one modeled figure the way AtScale reprices it: of its total,
// fixed is paid per round whatever the round carries — kernel launches,
// staging-leg latency, network α, frame headers, the collectives that
// carry no payload —
// and load is charged at a unit cost that grows with the load (the CPU
// model's per-item power law); the rest is work proportional to the bases.
type split struct{ total, fixed, load time.Duration }

func (x *split) add(y split) {
	x.total += y.total
	x.fixed += y.fixed
	x.load += y.load
}

// at prices x with its work times s, its load term times load and its
// fixed costs times rounds. Factors of 1 return x.total exactly.
func (x split) at(s, load, rounds float64) time.Duration {
	work := x.total - x.fixed - x.load
	return time.Duration(float64(work)*s + float64(x.load)*load + float64(x.fixed)*rounds)
}

// costs is what a Result keeps for AtScale: the slowest rank's parse,
// count and staging, and the fabric time of the payload Alltoallv, of the
// collectives that carry none, and of the leader-routed price's
// difference from the Alltoallv, each split; plus the CPU model's load
// exponent (0 on the GPU engine).
type costs struct {
	parse, count, stage          split
	alltoallv, control, rerouted split
	itemExp                      float64
}

// Projection is a run's modeled figures repriced at another input size
// (Result.AtScale). Its fields mean what the Result fields of the same
// name mean.
type Projection struct {
	// Scale is the projected input over the input the run read.
	Scale float64
	// Rounds is how many rounds the projected input takes under the run's
	// memory budget.
	Rounds                               int
	Modeled                              PhaseBreakdown
	Staging, AlltoallvTime, HierExchange time.Duration
	spilled                              bool
}

// ModeledTotal is Result.ModeledTotal at the projected scale.
func (p Projection) ModeledTotal() time.Duration {
	return overlapped(p.Modeled, p.Rounds, p.spilled)
}

// AtScale reprices the run as if its input had held realBases bases, s =
// realBases/InputBases times what it read — the paper's inputs are ≈10⁴
// times what a simulation holds. Every modeled figure is split as it is
// charged (see split):
//
//   - work — kernel rooflines, CPU ops and bytes, staging and payload
//     bytes — grows by s;
//   - fixed costs are counted as they ran and repriced at the rounds the
//     real input takes under the same MemBudgetBytes (one round without a
//     budget): the run's own rounds plus the difference the budget's round
//     cap makes to the bases;
//   - the CPU baseline's per-item term follows cluster.CPUModel's power
//     law at the projected load: a rank's items per round grow by
//     ℓ = s·Rounds/rounds, so the term grows by s·ℓ^PerItemExp —
//     s^(1+PerItemExp) on one round, and on a spilled run's pass 2,
//     whose bins do not multiply.
//
// Each phase is the slowest rank's, repriced. At the run's own scale the
// projection is the run: AtScale(float64(InputBases)) returns Modeled,
// Staging, AlltoallvTime, HierExchange and ModeledTotal exactly.
func (r *Result) AtScale(realBases float64) Projection {
	s := 1.0
	if r.InputBases > 0 {
		s = realBases / float64(r.InputBases)
	}
	ran := max(r.Rounds, 1)
	rounds := ran
	if r.MemBudget > 0 {
		capped := float64(r.Ranks * roundCap(r.MemBudget, r.Ranks))
		need := func(bases float64) int { return int(math.Ceil(bases / capped)) }
		rounds = max(ran+need(s*float64(r.InputBases))-need(float64(r.InputBases)), 1)
	}
	c := &r.costs
	rf := float64(rounds) / float64(ran)
	perRound := s * math.Pow(s*float64(ran)/float64(rounds), c.itemExp)
	perBin := perRound
	if r.Spilled {
		perBin = s * math.Pow(s, c.itemExp)
	}
	p := Projection{Scale: s, Rounds: rounds, spilled: r.Spilled}
	p.Modeled.Parse = c.parse.at(s, perRound, rf)
	p.Modeled.Count = c.count.at(s, perBin, rf)
	p.Staging = c.stage.at(s, s, rf)
	p.AlltoallvTime = c.alltoallv.at(s, s, rf)
	p.Modeled.Exchange = p.Staging + p.AlltoallvTime + c.control.at(s, s, rf)
	p.HierExchange = p.Modeled.Exchange + c.rerouted.at(s, s, rf)
	return p
}

// overlapped is the overlapped price of rounds rounds whose bulk-synchronous
// phase totals are m (see Result.ModeledTotal).
func overlapped(m PhaseBreakdown, rounds int, spilled bool) time.Duration {
	compute, drain := m.Parse+m.Count, time.Duration(0)
	if spilled {
		compute, drain = m.Parse, m.Count
	}
	n := time.Duration(max(rounds, 1))
	return ((n-1)*max(compute, m.Exchange)+compute+m.Exchange)/n + drain
}
