package pipeline

import (
	"time"

	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
)

// engine is the device half of the rank body: the two compute phases of
// the round (Alg. 1/2 parse and count), the table they fill, and the
// conversion of their metered work into modeled time. The rank body owns
// everything else — round state, spans, outcome bookkeeping, exchange,
// checkpoint and spill. There are two device engines, each written once
// over the payload unit T and handed the mode's kernel pair, which makes
// the four {cpu, gpu} × {kmer, supermer} combinations.
type engine[T unit] interface {
	// parse runs the parse (or supermer-build) phase over one round's
	// concatenated bases and returns one send row per destination of the
	// ORIGINAL world: the key→rank map never changes across shrinks
	// (checkpointed slices stay valid); the seat folds dead destinations
	// onto survivors at post time. The rows live in the parity slot's
	// pooled scratch and stay valid until the next parse of that parity.
	parse(parity int, data []byte) ([][]T, work, error)
	// count inserts the received rows, holding kmers k-mers in total, into
	// the engine's table.
	count(recv [][]T, kmers int) (work, error)
	// modeled converts metered work into this engine's modeled time.
	modeled(w work) time.Duration
	// stage models one host↔device staging leg of n bytes; the rank body
	// only asks engines that stage (GPU without GPUDirect).
	stage(n uint64) time.Duration
	// counted returns the engine's table for reading, between counts.
	counted() countedTable
	// newBin swaps in a new, empty working-set table for spill pass 2, which
	// counts one bin at a time. The engine will not parse again, and lets go
	// of its parse scratch so pass 2 does not hold the send buffers live.
	newBin()
}

// countedTable is what the rank body reads off an engine's table: the
// spectrum, to fold into the report, and the occupancy figures behind the
// table gauges. It is the engine's live table, never a copy.
type countedTable interface {
	kcount.Source
	Len() int
	Cap() int
	Grows() int
}

// serialTable returns t as a serial table, for the two consumers that keep
// one past the run (checkpoint slices, Config.KeepTables): the CPU
// engine's table is one already, the GPU engine's is snapshotted.
func serialTable(t countedTable) *kcount.Table {
	if at, ok := t.(*kcount.AtomicTable); ok {
		return at.Snapshot()
	}
	return t.(*kcount.Table)
}

// work is the metered cost of one or more parse or count calls. CPU
// engines meter abstract work and leave the conversion to modeled, which
// must see a bin's accumulated total — the Power9 per-item cost is a power
// law of the item count, not linear. GPU engines convert each kernel launch
// as it happens and carry the sum.
type work struct {
	meter  kernels.WorkMeter  // CPU engines
	stats  gpusim.KernelStats // GPU engines
	kernel time.Duration      // GPU engines: per-launch kernel times, summed
}

func (w *work) add(o work) {
	w.meter.Add(o.meter)
	w.stats.Add(o.stats)
	w.kernel += o.kernel
}

// ops is the compute-op tally reported as Result.ParseCompute/CountCompute.
func (w *work) ops() uint64 { return w.meter.Ops + w.stats.ComputeOps }

// newKmerEngine and newSupermerEngine bind a mode's kernel pair to the
// layout's device: the GPU kernels when it has GPUs (their packing scratch
// double-buffered by round parity), the scalar CPU baseline otherwise.
func newKmerEngine(rc rankCtx) (engine[uint64], error) {
	cfg := rc.cfg
	if cfg.Layout.GPU == nil {
		return newCPUEngine(rc, &cpuEngine[uint64]{parseRows: cpuParseKmers, countRows: cpuCountKmers})
	}
	pc := kernels.ParseConfig{Enc: cfg.Enc, K: cfg.K, NumDest: rc.seat.nOrig, Canonical: cfg.Canonical}
	var scratch [2]kernels.ParseScratch
	return newGPUEngine(rc, &gpuEngine[uint64]{
		parseRows: func(dev *gpusim.Device, parity int, data []byte) ([][]uint64, gpusim.KernelStats, error) {
			return kernels.ParseKmers(dev, pc, data, &scratch[parity])
		},
		countRows: kernels.CountKmers,
	})
}

func newSupermerEngine(rc rankCtx) (engine[byte], error) {
	cfg := rc.cfg
	if cfg.Layout.GPU == nil {
		return newCPUEngine(rc, &cpuEngine[byte]{parseRows: cpuBuildSupermers, countRows: cpuCountSupermers})
	}
	sc := kernels.SupermerConfig{Enc: cfg.Enc, C: cfg.minimizerConfig(), NumDest: rc.seat.nOrig, DestMap: rc.destMap}
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	var scratch [2]kernels.SupermerScratch
	return newGPUEngine(rc, &gpuEngine[byte]{
		parseRows: func(dev *gpusim.Device, parity int, data []byte) ([][]byte, gpusim.KernelStats, error) {
			return kernels.BuildSupermers(dev, sc, data, &scratch[parity])
		},
		countRows: func(dev *gpusim.Device, table *kcount.AtomicTable, rows [][]byte) (gpusim.KernelStats, error) {
			return kernels.CountSupermers(dev, table, wire, rows)
		},
	})
}

// cpuEngine is the scalar baseline (Alg. 1, or the CPU-supermer ablation of
// Alg. 2) over an open-addressing table with an optional singleton
// pre-filter. The mode plugs in its scalar kernel pair (cpu.go), which
// meters abstract work with the same constants the GPU kernels use; the
// layout's CPUModel converts it to Power9 time.
type cpuEngine[T unit] struct {
	cfg       Config
	destMap   []uint16
	nDest     int
	table     *kcount.Table
	bloom     *kcount.Bloom
	send      [2][][]T // per-parity send rows, truncated and reused
	parseRows func(cfg Config, destMap []uint16, nDest int, data []byte, prev [][]T) ([][]T, kernels.WorkMeter, error)
	countRows func(cfg Config, table *kcount.Table, bloom *kcount.Bloom, rows [][]T) (kernels.WorkMeter, error)
}

// newCPUEngine completes e, which arrives holding the mode's kernel pair:
// it builds the table, preloaded with the seat's checkpointed spectrum
// slices, and the Bloom filter when FilterSingletons is set.
func newCPUEngine[T unit](rc rankCtx, e *cpuEngine[T]) (*cpuEngine[T], error) {
	cfg, seat := rc.cfg, rc.seat
	seedLen := 0
	for _, db := range seat.seed {
		seedLen += db.Len()
	}
	e.cfg, e.destMap, e.nDest = cfg, rc.destMap, seat.nOrig
	e.table = kcount.NewTable(seedLen+1, cfg.Probing)
	for _, db := range seat.seed {
		for _, en := range db.Entries {
			e.table.Add(en.Key, en.Count)
		}
	}
	if cfg.FilterSingletons {
		fp := cfg.FilterFP
		if fp == 0 {
			fp = 0.01
		}
		// Size for this rank's expected distinct arrivals: its share of
		// the partition's k-mers is bounded by its share of the input
		// (bloomBases — known up front only on the in-memory path, which
		// is why RunStream rejects the filter).
		var err error
		if e.bloom, err = kcount.NewBloom(rc.bloomBases+1, fp); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *cpuEngine[T]) parse(parity int, data []byte) ([][]T, work, error) {
	send, m, err := e.parseRows(e.cfg, e.destMap, e.nDest, data, e.send[parity])
	e.send[parity] = send
	return send, work{meter: m}, err
}

func (e *cpuEngine[T]) count(recv [][]T, _ int) (work, error) {
	m, err := e.countRows(e.cfg, e.table, e.bloom, recv)
	return work{meter: m}, err
}

func (e *cpuEngine[T]) modeled(w work) time.Duration {
	return e.cfg.Layout.CPU.RankTimeLifted(w.meter.Ops, w.meter.Bytes, w.meter.Items, e.cfg.CPULoadLift)
}

func (e *cpuEngine[T]) stage(uint64) time.Duration { return 0 }

func (e *cpuEngine[T]) counted() countedTable { return e.table }

// newBin also drops the singleton filter: a bin is counted exactly.
func (e *cpuEngine[T]) newBin() {
	e.table, e.bloom = kcount.NewTable(1, e.cfg.Probing), nil
	e.send = [2][][]T{}
}

// gpuEngine is the GPU pipeline: the simulated device, the fixed-capacity
// atomic table it counts into, and the mode's kernel pair. Each launch is
// converted to modeled time by the device's cost model.
type gpuEngine[T unit] struct {
	cfg       Config
	dev       *gpusim.Device
	table     *kcount.AtomicTable
	parseRows func(dev *gpusim.Device, parity int, data []byte) ([][]T, gpusim.KernelStats, error)
	countRows func(dev *gpusim.Device, table *kcount.AtomicTable, rows [][]T) (gpusim.KernelStats, error)
}

// newGPUEngine completes e, which arrives holding the mode's kernel pair:
// it opens the device and preloads the seat's checkpointed spectrum slices
// into a table sized for them.
func newGPUEngine[T unit](rc rankCtx, e *gpuEngine[T]) (*gpuEngine[T], error) {
	cfg := rc.cfg
	e.cfg, e.dev = cfg, gpusim.MustDevice(*cfg.Layout.GPU)
	if cfg.Obs != nil {
		e.dev.Observe(cfg.Obs.Registry())
	}
	n := 1
	for _, db := range rc.seat.seed {
		n += db.Len()
	}
	e.table = kcount.NewAtomicTable(n, cfg.tableLoad(), cfg.Probing)
	for _, db := range rc.seat.seed {
		for _, en := range db.Entries {
			if _, _, err := e.table.Add(en.Key, en.Count); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// launched meters one kernel launch: its stats and its modeled time.
func (e *gpuEngine[T]) launched(st gpusim.KernelStats, err error) (work, error) {
	return work{stats: st, kernel: e.dev.Config().KernelTime(&st)}, err
}

func (e *gpuEngine[T]) parse(parity int, data []byte) ([][]T, work, error) {
	send, st, err := e.parseRows(e.dev, parity, data)
	w, err := e.launched(st, err)
	return send, w, err
}

// count first reserves table room for the k-mers arriving: an upper bound
// on the distinct keys the rows can add, so the kernel cannot push the
// table past its load ceiling, and an exact one, so the table tracks the
// k-mers the rank receives and not a worst-case multiple of its records.
func (e *gpuEngine[T]) count(recv [][]T, kmers int) (w work, err error) {
	if e.table, err = e.table.Reserve(kmers); err != nil {
		return w, err
	}
	return e.launched(e.countRows(e.dev, e.table, recv))
}

func (e *gpuEngine[T]) modeled(w work) time.Duration { return w.kernel }

func (e *gpuEngine[T]) stage(n uint64) time.Duration {
	return e.dev.Config().TransferTime(int64(n))
}

func (e *gpuEngine[T]) counted() countedTable { return e.table }

func (e *gpuEngine[T]) newBin() {
	e.table = kcount.NewAtomicTable(1, e.cfg.tableLoad(), e.cfg.Probing)
	e.parseRows = nil // the closure owns the packing scratch
}
