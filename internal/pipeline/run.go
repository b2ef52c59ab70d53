package pipeline

import (
	"errors"
	"fmt"
	"time"

	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// rankOutcome collects one rank's contribution to the global result.
type rankOutcome struct {
	parse, count split // modeled compute time
	stage        split // host↔device staging legs of the exchange
	itemsSent    uint64
	payloadSent  uint64
	sum          *kcount.Summary // the rank's spectrum slice; nil until counting ends
	table        *kcount.Table   // kept only under Config.KeepTables
	parseOps     uint64
	countOps     uint64
	parseSt      gpusim.KernelStats
	countSt      gpusim.KernelStats
	launches     int           // count-kernel launches behind countSt
	grow         time.Duration // wall time the count phase spent growing the table
	reserved     int           // most keys the count phase reserved table room for
	rounds       int
	ckpts        int // round checkpoints this seat persisted
}

// Run executes the configured pipeline over preloaded reads and returns the
// global result. It is RunStream over the slice (see runStream): the ranks'
// shared producer deals the reads out in rounds, in order, each rank's
// chunk of a round ending at an even share of its bases (the paper's
// parallel-I/O assumption, §IV-D). Without MemBudgetBytes the whole input
// is one round of even shares; a budget caps the rounds as it does a
// stream's (§III-A's multi-round execution). Balanced partitioning,
// checkpoints and the restart after a rank death work as on a stream, the
// slice replaying itself.
//
// Failures are structured, never a panic or deadlock: a rank death
// (injected or real) poisons the communicator and surfaces as an error
// joining every rank's failure (see mpisim.Run); a corrupted or dropped
// exchange is retried up to maxRetries times and, past that budget, fails
// the run with ErrExchangeLost. A run never returns a partial spectrum.
func Run(cfg Config, reads []fastq.Record) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	share := cfg.streamRoundBases()
	if cfg.MemBudgetBytes == 0 {
		var total int
		for _, rd := range reads {
			total += len(rd.Seq)
		}
		p := cfg.Layout.Ranks()
		share = (total + p - 1) / p
	}
	return runStream(cfg, fastq.NewSliceSource(reads), false, share)
}

// runState is what a run keeps across the worlds it goes through: a world
// that loses a rank ends, and the survivors continue in a new one (see
// runStream). One fault injector spans the run, so Result.Faults and a
// one-shot fatal kill cover every world; each original rank's outcome
// accumulates, so a failed world's work still counts; and the worlds'
// collective traces concatenate.
type runState struct {
	cfg      Config
	inj      *fault.Injector
	outcomes []rankOutcome // indexed by original rank
	trace    []mpisim.TraceEntry
	start    time.Time
	wall     time.Duration // from the start to the end of the latest world
	// dead marks the original ranks lost; restarts counts the worlds
	// that continued after a death.
	dead     []bool
	restarts int
}

// newRunState starts a run, returning its state and the seats of its
// first world: every rank, from round 0.
func newRunState(cfg Config) (*runState, []*rankSeat, error) {
	n := cfg.Layout.Ranks()
	inj, err := fault.New(cfg.Fault, n)
	if err != nil {
		return nil, nil, err
	}
	rs := &runState{cfg: cfg, inj: inj, outcomes: make([]rankOutcome, n), start: time.Now(), dead: make([]bool, n)}
	seats, err := seatsFromManifest(cfg, nil, rs.dead)
	return rs, seats, err
}

// world runs one simulated world, one rank per seat, and returns each
// seat's error and, when any failed, all of them joined under their
// original rank ids. src deals each seat's chunk of every round; ck, when
// non-nil, checkpoints periodically.
func (rs *runState) world(destMap []uint16, src chunkSource, seats []*rankSeat, ck *ckptCtl, spl *spillCtl) ([]error, error) {
	cfg := rs.cfg
	opt := mpisim.Options{Deadline: cfg.ExchangeDeadline, Obs: cfg.Obs, RanksPerNode: cfg.Layout.Net.RanksPerNode}
	// The one mode fork of the pipeline: the mode fixes the payload unit
	// the rank body is instantiated over — 64-bit k-mer words or supermer
	// wire bytes — with its codec and engine family.
	var rankBody func(rankCtx) error
	if cfg.Mode == KmerMode {
		rankBody = func(rc rankCtx) error { return runRank[uint64](rc, kmerCodec{}, newKmerEngine) }
	} else {
		var cd codec[byte] = supermerCodec{wire: kernels.SupermerWire{K: cfg.K, Window: cfg.Window}, mc: cfg.minimizerConfig()}
		rankBody = func(rc rankCtx) error { return runRank[byte](rc, cd, newSupermerEngine) }
	}
	trace, errs, err := mpisim.RunRanks(len(seats), opt, func(c *mpisim.Comm) error {
		seat := seats[c.Rank()]
		rc := rankCtx{
			cfg: cfg, destMap: destMap, inj: rs.inj, ck: ck,
			c: c, src: src, seat: seat, out: &rs.outcomes[seat.old],
		}
		if spl != nil {
			rc.rsp = spl.rank(seat.old)
			defer rc.rsp.close()
		}
		return rankBody(rc)
	})
	rs.trace = append(rs.trace, trace...)
	rs.wall = time.Since(rs.start)
	if err != nil {
		return nil, err
	}
	var joined []error
	for slot, e := range errs {
		if e != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", seats[slot].old, e))
		}
	}
	return errs, errors.Join(joined...)
}

// result folds the run's outcomes and trace into its Result and publishes
// the run's metrics.
func (rs *runState) result() *Result {
	res := aggregate(rs.cfg, rs.trace, rs.outcomes, rs.wall)
	res.Faults = rs.inj.Snapshot()
	if res.Recovered = rs.restarts > 0; res.Recovered {
		res.DeadRanks = deadList(rs.dead)
	}
	if reg := rs.cfg.Obs.Registry(); reg != nil {
		registerRunMetrics(reg, res)
		rs.inj.RegisterMetrics(reg)
	}
	return res
}

// registerRunMetrics publishes the run's headline numbers into the shared
// metrics registry so `-metrics-out` and scrapers see the pipeline beside
// the mpisim/gpusim/fault series. Counters accumulate across runs sharing
// one recorder; gauges reflect the latest run.
func registerRunMetrics(reg *obs.Registry, res *Result) {
	reg.Counter("pipeline_items_exchanged_total", "Exchanged units (k-mers or supermers) across all ranks and rounds.").Add(res.ItemsExchanged)
	reg.Counter("pipeline_payload_bytes_total", "Exchanged payload volume including supermer length bytes.").Add(res.PayloadBytes)
	reg.Counter("pipeline_kmers_counted_total", "Counted k-mer instances.").Add(res.TotalKmers)
	reg.Gauge("pipeline_distinct_kmers", "Distinct k-mers in the counted spectrum.").Set(float64(res.DistinctKmers))
	reg.Gauge("pipeline_rounds", "Parse-exchange-count rounds executed.").Set(float64(res.Rounds))
	reg.Gauge("pipeline_load_imbalance", "Max/avg of per-rank counted k-mers (Table III).").Set(res.LoadImbalance())
	reg.Counter("pipeline_ckpt_rounds_total", "Round checkpoints persisted.").Add(uint64(res.Checkpoints))
	recovered := uint64(0)
	if res.Recovered {
		recovered = 1
	}
	reg.Counter("pipeline_recovery_shrinks_total", "Runs completed by restarting the survivors from the last checkpoint after a rank death.").Add(recovered)
	reg.Gauge("pipeline_recovery_dead_ranks", "Ranks lost (and absorbed by survivors) during the latest run.").Set(float64(len(res.DeadRanks)))
	for phase, d := range map[string]time.Duration{
		"parse":    res.Modeled.Parse,
		"exchange": res.Modeled.Exchange,
		"count":    res.Modeled.Count,
	} {
		reg.Gauge("pipeline_phase_seconds", "Summit-projected phase time (bulk-synchronous: slowest rank).", obs.L("phase", phase)).Set(d.Seconds())
	}
}

// topKPerRank bounds the per-rank contribution to the global top-k merge.
const topKPerRank = 64

// aggregate folds per-rank outcomes and the communication trace into the
// global Result. Phase times follow the bulk-synchronous rule: a phase ends
// when its slowest rank finishes.
func aggregate(cfg Config, trace []mpisim.TraceEntry, outcomes []rankOutcome, wall time.Duration) *Result {
	res := &Result{
		Name:         fmt.Sprintf("%s/%s", cfg.Layout.Name, cfg.Mode),
		Ranks:        cfg.Layout.Ranks(),
		Nodes:        cfg.Layout.Nodes,
		Mode:         cfg.Mode,
		GPU:          cfg.Layout.GPU != nil,
		Wall:         wall,
		Spilled:      cfg.Spill.Dir != "",
		SpillBins:    cfg.Spill.bins(),
		PerRankKmers: make([]uint64, len(outcomes)),
	}
	// Ranks own disjoint k-mer partitions, so the global spectrum is the
	// fold of the per-rank summaries.
	total := kcount.NewSummary(topKPerRank)
	c := &res.costs
	if cpu := cfg.Layout.CPU; cpu != nil {
		c.itemExp = cpu.PerItemExp
	}
	for r := range outcomes {
		o := &outcomes[r]
		if o.parse.total > c.parse.total {
			c.parse = o.parse
		}
		if o.count.total > c.count.total {
			c.count = o.count
		}
		if o.stage.total > c.stage.total {
			c.stage = o.stage
		}
		if o.rounds > res.Rounds {
			res.Rounds = o.rounds
		}
		if o.ckpts > res.Checkpoints {
			res.Checkpoints = o.ckpts
		}
		res.ItemsExchanged += o.itemsSent
		res.PayloadBytes += o.payloadSent
		if o.sum != nil {
			total.Merge(o.sum)
			res.PerRankKmers[r] = o.sum.Total
		}
		res.ParseCompute += o.parseOps
		res.CountCompute += o.countOps
		res.GPUParse.Add(o.parseSt)
		res.GPUCount.Add(o.countSt)
		if cfg.KeepTables {
			res.Tables = append(res.Tables, o.table)
		}
	}
	res.TotalKmers, res.DistinctKmers = total.Total, total.Distinct
	res.Histogram, res.TopKmers = total.Hist, total.TopK()
	res.Modeled.Parse = c.parse.total
	res.Modeled.Count = c.count.total

	// The payload Alltoallv of attempt 0 ("alltoallv") is also priced
	// leader-routed; its retries ("alltoallv_retry") are flat either way.
	// A collective that carries no payload (the count announcement,
	// settle's allreduce, checkpoint barriers) is a fixed cost.
	net, topo, hdr := cfg.Layout.Net, cfg.Layout.Net.Topology(), frameHeader(cfg.Mode)
	for _, e := range trace {
		t := net.CollectiveTime(e)
		if e.Op != "alltoallv" && e.Op != "alltoallv_retry" {
			c.control.add(split{total: t, fixed: t})
			continue
		}
		// A payload exchange's fixed part is its α and its frame headers:
		// each of a node's m members sends a frame to, and receives one
		// from, each of the P−m ranks off it, whatever the frame holds —
		// the tally LeaderRouted makes of an empty collective's records.
		frames := topo.LeaderRouted(mpisim.TraceEntry{Ranks: e.Ranks, NodeBytes: make([]uint64, len(e.NodeBytes))}, hdr)
		frames.FabricRanks = e.FabricRanks
		fixed := net.CollectiveTime(frames)
		c.alltoallv.add(split{total: t, fixed: fixed})
		res.Volume.TotalBytes += e.Volume.TotalBytes
		res.Volume.FabricBytes += e.Volume.FabricBytes
		res.Volume.MaxNodeBytes = max(res.Volume.MaxNodeBytes, e.Volume.MaxNodeBytes)
		if e.Op == "alltoallv" {
			c.rerouted.add(split{
				total: net.CollectiveTime(topo.LeaderRouted(e, recordHeader)) - t,
				fixed: net.CollectiveTime(topo.LeaderRouted(frames, recordHeader)) - fixed,
			})
		}
	}
	res.AlltoallvTime = c.alltoallv.total
	res.Staging = c.stage.total
	res.Modeled.Exchange = c.stage.total + c.alltoallv.total + c.control.total
	res.HierExchange = res.Modeled.Exchange + c.rerouted.total
	return res
}

// frameHeader is the bytes of a mode's frame header, which every frame of
// a payload exchange carries (codec.header).
func frameHeader(m Mode) uint64 {
	if m == KmerMode {
		return kernels.WordFrameHeader * 8
	}
	return kernels.ByteFrameHeader
}

// recordHeader is the bytes a leader-routed frame travels behind: its
// source and destination rank and its length, which the destination
// node's leader reads to scatter it.
const recordHeader = 8
