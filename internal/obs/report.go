package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dedukt/internal/stats"
)

// RoundReport summarizes one parse-exchange-count round across ranks.
type RoundReport struct {
	Round int
	// Imbalance is max/avg over per-rank counted items this round — the
	// paper's Table III metric (stats.Imbalance) resolved per round, which
	// is where minimizer-induced skew actually shows up.
	Imbalance float64
	// Items is the total counted-item load of the round; MaxItems the
	// heaviest rank's share.
	Items, MaxItems uint64
	// SlowestRank spent the most wall time in the round's spans;
	// SlowestWall is that time.
	SlowestRank int
	SlowestWall time.Duration
	// Retries and Faults tally the round's retry_round instants and
	// injected-fault instants (kill/delay/drop/corrupt).
	Retries, Faults uint64
	// ModeledCompute is the slowest rank's modeled compute time this round
	// (stage_h2d + parse + count); ModeledExchange the slowest rank's
	// modeled exchange time. These feed the overlap estimate below.
	ModeledCompute, ModeledExchange time.Duration
}

// Report is the human-readable digest of one recorded run.
type Report struct {
	Ranks  int
	Rounds []RoundReport
	// PhaseWall is the total wall time per phase, summed over ranks and
	// rounds; PhaseModeled the same for the modeled Summit time.
	PhaseWall    map[string]time.Duration
	PhaseModeled map[string]time.Duration
	// Events tallies every instant by name (fault_kill, retry_round, ...).
	Events map[string]uint64
	// SlowestRank spent the most wall time across the whole run.
	SlowestRank int
	SlowestWall time.Duration
	// ModeledSerial is the modeled round-pipeline time when every round runs
	// compute then exchange back to back; ModeledOverlapped prices the same
	// rounds as an overlapped pipeline, where round r's exchange hides
	// behind round r+1's compute:
	// compute(0) + Σ max(exchange(r), compute(r+1)) + exchange(last).
	ModeledSerial, ModeledOverlapped time.Duration
}

// BuildReport folds the recorded spans and instants into a Report. A nil
// recorder yields an empty report.
func (r *Recorder) BuildReport() *Report {
	rep := &Report{
		PhaseWall:    map[string]time.Duration{},
		PhaseModeled: map[string]time.Duration{},
		Events:       map[string]uint64{},
		SlowestRank:  -1,
	}
	if r == nil {
		return rep
	}
	spans := r.Spans()
	instants := r.Instants()
	rep.Ranks = r.Ranks()

	maxRound := -1
	for _, s := range spans {
		if s.Round > maxRound {
			maxRound = s.Round
		}
	}
	for _, i := range instants {
		if i.Round > maxRound {
			maxRound = i.Round
		}
	}
	if maxRound < 0 {
		return rep
	}

	type roundAcc struct {
		items    []uint64 // per rank: counted items
		rankWall []uint64 // per rank: wall ns over all phases
		compute  []uint64 // per rank: modeled ns in stage_h2d+parse+count
		exch     []uint64 // per rank: modeled ns in exchange
	}
	accs := make([]roundAcc, maxRound+1)
	for i := range accs {
		accs[i] = roundAcc{
			items:    make([]uint64, rep.Ranks),
			rankWall: make([]uint64, rep.Ranks),
			compute:  make([]uint64, rep.Ranks),
			exch:     make([]uint64, rep.Ranks),
		}
	}
	runWall := make([]uint64, rep.Ranks)

	for _, s := range spans {
		rep.PhaseWall[s.Phase] += s.Dur
		rep.PhaseModeled[s.Phase] += s.Modeled
		if s.Round < 0 || s.Round > maxRound || s.Rank < 0 || s.Rank >= rep.Ranks {
			continue
		}
		a := &accs[s.Round]
		a.rankWall[s.Rank] += uint64(s.Dur)
		runWall[s.Rank] += uint64(s.Dur)
		switch s.Phase {
		case PhaseCount:
			a.items[s.Rank] += s.Items
			a.compute[s.Rank] += uint64(s.Modeled)
		case PhaseStageH2D, PhaseParse:
			a.compute[s.Rank] += uint64(s.Modeled)
		case PhaseExchange:
			a.exch[s.Rank] += uint64(s.Modeled)
		}
	}
	for _, i := range instants {
		rep.Events[i.Name]++
	}

	rep.Rounds = make([]RoundReport, maxRound+1)
	for rd := range rep.Rounds {
		a := &accs[rd]
		rr := RoundReport{Round: rd, SlowestRank: -1}
		rr.Imbalance = stats.Imbalance(a.items)
		for rk, n := range a.items {
			rr.Items += n
			if n > rr.MaxItems {
				rr.MaxItems = n
			}
			if rr.SlowestRank < 0 || a.rankWall[rk] > a.rankWall[rr.SlowestRank] {
				rr.SlowestRank = rk
			}
		}
		if rr.SlowestRank >= 0 {
			rr.SlowestWall = time.Duration(a.rankWall[rr.SlowestRank])
		}
		for rk := range a.compute {
			if d := time.Duration(a.compute[rk]); d > rr.ModeledCompute {
				rr.ModeledCompute = d
			}
			if d := time.Duration(a.exch[rk]); d > rr.ModeledExchange {
				rr.ModeledExchange = d
			}
		}
		rep.Rounds[rd] = rr
	}
	for rd, rr := range rep.Rounds {
		rep.ModeledSerial += rr.ModeledCompute + rr.ModeledExchange
		if rd == 0 {
			rep.ModeledOverlapped += rr.ModeledCompute
		}
		if rd+1 < len(rep.Rounds) {
			hidden := rep.Rounds[rd+1].ModeledCompute
			if rr.ModeledExchange > hidden {
				hidden = rr.ModeledExchange
			}
			rep.ModeledOverlapped += hidden
		} else {
			rep.ModeledOverlapped += rr.ModeledExchange
		}
	}
	for _, i := range instants {
		if i.Round < 0 || i.Round > maxRound {
			continue
		}
		rr := &rep.Rounds[i.Round]
		switch i.Name {
		case EvRetry:
			rr.Retries++
		case EvKill, EvDelay, EvDrop, EvCorrupt:
			rr.Faults++
		}
	}
	for rk, w := range runWall {
		if rep.SlowestRank < 0 || w > uint64(rep.SlowestWall) {
			rep.SlowestRank = rk
			rep.SlowestWall = time.Duration(w)
		}
	}
	return rep
}

// WriteText renders the report as the run summary `dedukt -report` prints.
func (rep *Report) WriteText(w io.Writer) error {
	if len(rep.Rounds) == 0 {
		_, err := fmt.Fprintln(w, "observability report: no spans recorded")
		return err
	}
	fmt.Fprintf(w, "observability report: %d ranks, %d rounds\n\n", rep.Ranks, len(rep.Rounds))

	t := stats.NewTable("round", "counted items", "imbalance", "slowest rank", "rank wall", "retries", "faults")
	for _, rr := range rep.Rounds {
		t.Row(rr.Round, stats.Count(rr.Items), rr.Imbalance,
			rr.SlowestRank, rr.SlowestWall, rr.Retries, rr.Faults)
	}
	fmt.Fprint(w, t)

	fmt.Fprintf(w, "\nper-phase totals (all ranks × rounds):\n")
	phases := make([]string, 0, len(rep.PhaseWall))
	for p := range rep.PhaseWall {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	pt := stats.NewTable("phase", "wall", "modeled")
	for _, p := range phases {
		pt.Row(p, rep.PhaseWall[p], rep.PhaseModeled[p])
	}
	fmt.Fprint(w, pt)

	if rep.ModeledSerial > 0 {
		saved := rep.ModeledSerial - rep.ModeledOverlapped
		fmt.Fprintf(w, "\nmodeled round pipeline: serial %s, overlapped %s (%.1f%% hidden by overlap)\n",
			stats.Seconds(rep.ModeledSerial), stats.Seconds(rep.ModeledOverlapped),
			100*float64(saved)/float64(rep.ModeledSerial))
	}

	if len(rep.Events) > 0 {
		fmt.Fprintf(w, "\nevents:\n")
		names := make([]string, 0, len(rep.Events))
		for n := range rep.Events {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-16s %d\n", n, rep.Events[n])
		}
	}
	if rep.SlowestRank >= 0 {
		fmt.Fprintf(w, "\nslowest rank overall: rank %d (%s of phase wall time)\n",
			rep.SlowestRank, stats.Seconds(rep.SlowestWall))
	}
	return nil
}
