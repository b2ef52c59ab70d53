package pipeline

import (
	"errors"
	"fmt"
	"runtime"
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
	parse, count time.Duration // modeled compute time
	stage        time.Duration // host↔device staging legs of the exchange
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
	incomplete   bool // a round degraded past its retry budget
	ckpts        int  // round checkpoints this seat persisted
	recovered    bool // this seat completed at least one shrink recovery
	deadRanks    []int
	replays      int // shrink recoveries this seat went through
}

// Run executes the configured pipeline over the reads and returns the
// global result. The reads are partitioned across ranks by balanced base
// count (the paper's parallel-I/O assumption, §IV-D).
//
// Failures are structured, never a panic or deadlock: a rank death
// (injected or real) poisons the communicator and surfaces as an error
// joining every rank's failure (see mpisim.Run); a corrupted or dropped
// exchange is retried up to Config.MaxRetries times and, past that budget,
// degrades the run to a partial result with Result.Incomplete set and the
// per-rank damage in Result.Faults.
//
// Under Config.KeepTables the run collects the heap before the ranks start
// and again once they have ended. Such a run is the first step of something
// larger — a KCD export, a server — whose peak memory is the run's own or
// what it leaves plus what the caller builds from the tables. The run's big
// transient is the world's send rows (8 B a k-mer), allocated as the ranks
// start and dead when they end: collected before, the caller's garbage makes
// room for the rows instead of lying under them; collected after, the rows
// make room for the caller's database. Left to the collector's own timing the
// same count → MergedTable → FromTable peaked anywhere from 186 to 281 MB.
func Run(cfg Config, reads []fastq.Record) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ckpt.Dir != "" {
		return nil, fmt.Errorf("pipeline: checkpointing needs the streaming cursor protocol; use RunStream")
	}
	var destMap []uint16
	if cfg.BalancedPartition {
		destMap = buildBalancedMap(cfg, reads)
	}
	p := cfg.Layout.Ranks()
	parts := fastq.Partition(reads, p)
	sources := make([]chunkSource, p)
	var totalBases uint64
	for r, part := range parts {
		for _, rd := range part {
			totalBases += uint64(len(rd.Seq))
		}
		sources[r] = &sliceChunker{reads: part, maxBases: cfg.RoundBases}
	}
	spl, err := newSpillCtl(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.KeepTables {
		runtime.GC()
	}
	res, err := runWorld(cfg, destMap, sources, nil, nil, nil, spl)
	if err != nil {
		return nil, err
	}
	if cfg.KeepTables {
		runtime.GC()
	}
	res.InputReads = uint64(len(reads))
	res.InputBases = totalBases
	return res, nil
}

// runWorld is the engine shared by Run, RunStream and ResumeStream: it
// spins up the simulated world with one chunk producer per rank and
// aggregates the rank outcomes. sources feeds each rank's round loop (a
// preloaded partition for Run, handles on a shared bounded producer for
// the streaming paths).
//
// seats, when non-nil, is a resumed world (possibly smaller than the
// layout after earlier shrinks); nil means the identity world. ck
// enables periodic checkpointing and rv in-place shrink recovery; with
// rv set, a rank death no longer fails the run — survivors shrink the
// communicator, replay from the last checkpoint, and the dead ranks'
// expected failures are absorbed below.
func runWorld(cfg Config, destMap []uint16, sources []chunkSource, seats []*rankSeat, ck *ckptCtl, rv *recoverRT, spl *spillCtl) (*Result, error) {
	nOrig := cfg.Layout.Ranks()
	inj, err := fault.New(cfg.Fault, nOrig)
	if err != nil {
		return nil, err
	}
	outcomes := make([]rankOutcome, nOrig)
	if seats == nil {
		seats = make([]*rankSeat, nOrig)
		for r := range seats {
			seats[r] = identitySeat(r, nOrig)
		}
	}

	start := time.Now()
	opt := mpisim.Options{Deadline: cfg.ExchangeDeadline, Obs: cfg.Obs}
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
		// The seat and source are bound to the starting slot; both stay
		// with this goroutine when a shrink renumbers the communicator.
		seat := seats[c.Rank()]
		out := &outcomes[seat.old]
		out.incomplete = seat.degraded
		rc := rankCtx{
			cfg: cfg, destMap: destMap, inj: inj, ck: ck,
			c: c, src: sources[c.Rank()], seat: seat, out: out,
		}
		if spl != nil {
			rc.rsp = spl.rank(seat.old)
		}
		for {
			err := rankBody(rc)
			if err == nil {
				return nil
			}
			if rv == nil || !errors.Is(err, mpisim.ErrPeerDead) {
				return err
			}
			// A peer died mid-run and recovery is enabled: shrink,
			// reload the last checkpoint, replay. Another death during
			// the recovery itself surfaces as ErrPeerDead again and
			// loops into a further shrink — each attempt loses at least
			// one rank, so the loop terminates.
			for {
				rerr := rv.shrinkReload(c, seat, out)
				if rerr == nil {
					break
				}
				if !errors.Is(rerr, mpisim.ErrPeerDead) {
					return rerr
				}
			}
		}
	})
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := absorbRankErrors(seats, outcomes, errs); err != nil {
		return nil, err
	}
	res := aggregate(cfg, trace, outcomes, wall)
	res.Faults = inj.Snapshot()
	if cfg.Obs != nil {
		registerRunMetrics(cfg.Obs.Registry(), res)
		inj.RegisterMetrics(cfg.Obs.Registry())
	}
	return res, nil
}

// absorbRankErrors decides whether the world's per-slot outcomes add up
// to a successful run. Without recovery every failure is fatal
// (RunWithOptions semantics). After a shrink recovery the dead ranks'
// own failures are expected — the survivors completed the full
// computation on their behalf — so a failure is absorbed exactly when
// some seat recovered and the failing slot's original rank is in the
// agreed dead set. Any other failure (or all ranks failing) still fails
// the run.
func absorbRankErrors(seats []*rankSeat, outcomes []rankOutcome, errs []error) error {
	dead := map[int]bool{}
	anyRecovered := false
	for i := range outcomes {
		if outcomes[i].recovered {
			anyRecovered = true
			for _, d := range outcomes[i].deadRanks {
				dead[d] = true
			}
		}
	}
	var joined []error
	for slot, e := range errs {
		if e == nil {
			continue
		}
		if anyRecovered && dead[seats[slot].old] {
			continue
		}
		joined = append(joined, fmt.Errorf("rank %d: %w", seats[slot].old, e))
	}
	return errors.Join(joined...)
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
	incomplete := 0.0
	if res.Incomplete {
		incomplete = 1
	}
	reg.Gauge("pipeline_incomplete", "1 when a round degraded past its retry budget (counts are a lower bound).").Set(incomplete)
	reg.Counter("pipeline_ckpt_rounds_total", "Round checkpoints persisted.").Add(uint64(res.Checkpoints))
	recovered := uint64(0)
	if res.Recovered {
		recovered = 1
	}
	reg.Counter("pipeline_recovery_shrinks_total", "Runs completed through shrink recovery after rank death.").Add(recovered)
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
		Overlap:      cfg.Overlap,
		Wall:         wall,
		Spilled:      cfg.Spill.Dir != "",
		SpillBins:    spillBinsOf(cfg),
		PerRankKmers: make([]uint64, len(outcomes)),
	}
	// Ranks own disjoint k-mer partitions, so the global spectrum is the
	// fold of the per-rank summaries.
	total := kcount.NewSummary(topKPerRank)
	var maxParse, maxCount, maxStage time.Duration
	for r := range outcomes {
		o := &outcomes[r]
		if o.parse > maxParse {
			maxParse = o.parse
		}
		if o.count > maxCount {
			maxCount = o.count
		}
		if o.stage > maxStage {
			maxStage = o.stage
		}
		if o.rounds > res.Rounds {
			res.Rounds = o.rounds
		}
		if o.incomplete {
			res.Incomplete = true
		}
		if o.ckpts > res.Checkpoints {
			res.Checkpoints = o.ckpts
		}
		if o.recovered {
			res.Recovered = true
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
	res.DeadRanks = mergeDead(outcomes)
	res.Modeled.Parse = maxParse
	res.Modeled.Count = maxCount

	var fabric time.Duration
	for _, e := range trace {
		if e.Bytes == nil {
			continue
		}
		t := cfg.Layout.Net.CollectiveTime(e.Bytes)
		fabric += t
		if e.Op == "alltoallv" {
			res.AlltoallvTime += t
			vs := cfg.Layout.Net.Volumes(e.Bytes)
			res.Volume.TotalBytes += vs.TotalBytes
			res.Volume.FabricBytes += vs.FabricBytes
			if vs.MaxNodeBytes > res.Volume.MaxNodeBytes {
				res.Volume.MaxNodeBytes = vs.MaxNodeBytes
			}
		}
	}
	res.Modeled.Exchange = maxStage + fabric
	return res
}
