package pipeline

import (
	"fmt"
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
	// onto survivors at post time. Each row lies behind the mode's frame
	// header room (codec.header), so the exchange seals and ships it in
	// place. The rows live in pooled buffer slot (one of parseSlots) and
	// stay valid until the next parse into that slot.
	parse(slot int, data []byte) ([][]T, work, error)
	// count inserts the received rows into the engine's table.
	count(recv [][]T) (work, error)
	// modeled converts metered work into this engine's modeled time.
	modeled(w work) time.Duration
	// stage models one host↔device staging leg of n bytes; the rank body
	// only asks engines that stage (GPU without GPUDirect).
	stage(n uint64) time.Duration
	// counted returns the engine's table for reading, between counts.
	counted() countedTable
	// newBin swaps in a new, empty working-set table for spill pass 2, which
	// counts one bin at a time. The engine will not parse again, and lets go
	// of its parse rows so pass 2 does not hold the send buffers live.
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
	Rehashed() int
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
	meter    kernels.WorkMeter  // CPU engines
	stats    gpusim.KernelStats // GPU engines
	kernel   time.Duration      // GPU engines: per-launch kernel times, summed
	launches int                // GPU engines: count-kernel launches
	grow     time.Duration      // wall time inside the table's Reserve
	reserved int                // most keys a Reserve was asked to make the table hold
}

func (w *work) add(o work) {
	w.meter.Add(o.meter)
	w.stats.Add(o.stats)
	w.kernel += o.kernel
	w.launches += o.launches
	w.grow += o.grow
	w.reserved = max(w.reserved, o.reserved)
}

// ops is the compute-op tally reported as Result.ParseCompute/CountCompute.
func (w *work) ops() uint64 { return w.meter.Ops + w.stats.ComputeOps }

// newKmerEngine and newSupermerEngine bind a mode's kernel pair to the
// layout's device: the GPU kernels when it has GPUs, the scalar CPU baseline
// otherwise. All a rank holds of a GPU parse is what it returns — the packed
// send rows, rotating over parseSlots buffers; the kernels' staging is dead
// when the kernel returns and comes from the kernels package's pool.
func newKmerEngine(rc rankCtx) (engine[uint64], error) {
	cfg := rc.cfg
	if cfg.Layout.GPU == nil {
		return newCPUEngine(rc, &cpuEngine[uint64]{parseRows: cpuParseKmers, countRows: cpuCountKmers}), nil
	}
	pc := kernels.ParseConfig{Enc: cfg.Enc, K: cfg.K, NumDest: rc.seat.nOrig, Canonical: cfg.Canonical, Headroom: kernels.WordFrameHeader}
	var rows [parseSlots]kernels.Packed[uint64]
	return newGPUEngine(rc, &gpuEngine[uint64]{
		parseRows: func(dev *gpusim.Device, slot int, data []byte) ([][]uint64, gpusim.KernelStats, error) {
			return kernels.ParseKmers(dev, pc, data, &kernels.ParseScratch{Out: &rows[slot]})
		},
		index: func(dev *gpusim.Device, rows [][]uint64) (arrival, error) {
			return kernels.IndexKmers(dev, rows), nil
		},
	})
}

func newSupermerEngine(rc rankCtx) (engine[byte], error) {
	cfg := rc.cfg
	if cfg.Layout.GPU == nil {
		return newCPUEngine(rc, &cpuEngine[byte]{parseRows: cpuBuildSupermers, countRows: cpuCountSupermers}), nil
	}
	sc := kernels.SupermerConfig{Enc: cfg.Enc, C: cfg.minimizerConfig(), NumDest: rc.seat.nOrig, DestMap: rc.destMap, Headroom: kernels.ByteFrameHeader}
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	var rows [parseSlots]kernels.Packed[byte]
	return newGPUEngine(rc, &gpuEngine[byte]{
		parseRows: func(dev *gpusim.Device, slot int, data []byte) ([][]byte, gpusim.KernelStats, error) {
			return kernels.BuildSupermers(dev, sc, data, &kernels.SupermerScratch{Out: &rows[slot]})
		},
		index: func(dev *gpusim.Device, rows [][]byte) (arrival, error) {
			return kernels.IndexSupermers(dev, wire, rows)
		},
	})
}

// cpuEngine is the scalar baseline (Alg. 1, or the CPU-supermer ablation of
// Alg. 2) over an open-addressing table. The mode plugs in its scalar kernel
// pair (cpu.go), which meters abstract work with the same constants the GPU
// kernels use; the layout's CPUModel converts it to Power9 time.
type cpuEngine[T unit] struct {
	cfg       Config
	destMap   []uint16
	nDest     int
	table     *kcount.Table
	send      [parseSlots][][]T // per-slot send rows, truncated and reused
	parseRows func(cfg Config, destMap []uint16, nDest int, data []byte, prev [][]T) ([][]T, kernels.WorkMeter, error)
	countRows func(cfg Config, table *kcount.Table, rows [][]T) (work, error)
}

// newCPUEngine completes e, which arrives holding the mode's kernel pair:
// it builds the table, preloaded with the seat's checkpointed spectrum
// slices.
func newCPUEngine[T unit](rc rankCtx, e *cpuEngine[T]) *cpuEngine[T] {
	cfg, seat := rc.cfg, rc.seat
	seedLen := 0
	for _, db := range seat.seed {
		seedLen += db.Len()
	}
	e.cfg, e.destMap, e.nDest = cfg, rc.destMap, seat.nOrig
	e.table = kcount.NewTable(seedLen+1, kcount.Linear)
	for _, db := range seat.seed {
		for _, en := range db.Entries {
			e.table.Add(en.Key, en.Count)
		}
	}
	return e
}

func (e *cpuEngine[T]) parse(slot int, data []byte) ([][]T, work, error) {
	send, m, err := e.parseRows(e.cfg, e.destMap, e.nDest, data, e.send[slot])
	e.send[slot] = send
	return send, work{meter: m}, err
}

func (e *cpuEngine[T]) count(recv [][]T) (work, error) {
	return e.countRows(e.cfg, e.table, recv)
}

func (e *cpuEngine[T]) modeled(w work) time.Duration {
	return e.cfg.Layout.CPU.RankTimeLifted(w.meter.Ops, w.meter.Bytes, w.meter.Items, e.cfg.CPULoadLift)
}

func (e *cpuEngine[T]) stage(uint64) time.Duration { return 0 }

func (e *cpuEngine[T]) counted() countedTable { return e.table }

func (e *cpuEngine[T]) newBin() {
	e.table = kcount.NewTable(1, kcount.Linear)
	e.send = [parseSlots][][]T{}
}

// gpuEngine is the GPU pipeline: the simulated device, the fixed-capacity
// atomic table it counts into, and the mode's kernel pair. Each launch is
// converted to modeled time by the device's cost model.
type gpuEngine[T unit] struct {
	cfg       Config
	dev       *gpusim.Device
	table     *kcount.AtomicTable
	parseRows func(dev *gpusim.Device, slot int, data []byte) ([][]T, gpusim.KernelStats, error)
	index     func(dev *gpusim.Device, rows [][]T) (arrival, error)
}

// arrival is one count's received rows, verified and indexed by the mode's
// kernel package type (kernels.KmerArrival, kernels.SupermerArrival) so the
// count kernel can be launched over successive windows of them.
type arrival interface {
	// Kmers returns the k-mers the rows hold.
	Kmers() int
	// Count launches the count kernel over the window of at most budget
	// k-mers that starts at item from, returning the item after the window
	// and the k-mers it held.
	Count(table *kcount.AtomicTable, from, budget int) (next, kmers int, st gpusim.KernelStats, err error)
}

// minLaunch is the fewest k-mers the count loop grows the table for, and so
// the fewest it cuts an arrival into: below it a launch is overhead-bound
// (the 5 µs launch overhead is ≈ 550 k-mers of V100 count time), so a
// smaller arrival is always one launch.
const minLaunch = 1 << 15

// newGPUEngine completes e, which arrives holding the mode's kernel pair:
// it opens the device and preloads the seat's checkpointed spectrum slices
// into a table sized for them.
func newGPUEngine[T unit](rc rankCtx, e *gpuEngine[T]) (*gpuEngine[T], error) {
	cfg := rc.cfg
	e.cfg, e.dev = cfg, gpusim.MustDevice(*cfg.Layout.GPU)
	if cfg.Obs != nil {
		e.dev.Observe(cfg.Obs.Registry())
		kernels.ObserveStaging(cfg.Obs.Registry())
	}
	n := 1
	for _, db := range rc.seat.seed {
		n += db.Len()
	}
	e.table = kcount.NewAtomicTable(n, tableLoad, kcount.Linear)
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

func (e *gpuEngine[T]) parse(slot int, data []byte) ([][]T, work, error) {
	send, st, err := e.parseRows(e.dev, slot, data)
	w, err := e.launched(st, err)
	return send, w, err
}

// count inserts the rows with as many kernel launches as the table needs
// to grow with the keys it holds, not the k-mers that arrive. A launch of n
// k-mers adds at most n keys, so each launch takes at most the room left
// under the load ceiling — the ceiling and ErrTableFull hold exactly, with
// no estimate of the distinct keys. When the room is short of both the rest
// of the arrival and a worthwhile launch (a quarter of the ceiling, or
// minLaunch), the table is first grown, in place, to have room for as many
// keys again as it holds (at least minLaunch, never more than are left), so
// its final size follows its keys however often they repeat, and all the
// count allocates for it is that final size. An arrival that fits the
// room, or holds under minLaunch k-mers, is one launch, as is an empty one.
func (e *gpuEngine[T]) count(recv [][]T) (w work, err error) {
	in, err := e.index(e.dev, recv)
	if err != nil {
		return w, err
	}
	for from, left := 0, in.Kmers(); ; {
		room := e.table.Room()
		if room < min(left, max(e.table.Ceiling()/4, minLaunch)) {
			incoming := min(left, max(e.table.Len(), minLaunch))
			w.reserved = max(w.reserved, e.table.Len()+incoming)
			began := time.Now()
			e.table.Reserve(incoming)
			w.grow += time.Since(began)
			room = e.table.Room()
		}
		// The room is all that is left or at least minLaunch k-mers, more
		// than one supermer holds: every launch makes progress.
		next, took, st, err := in.Count(e.table, from, min(left, room))
		if err == nil && took == 0 && left > 0 {
			err = fmt.Errorf("pipeline: count launch at item %d took none of %d k-mers (room %d)", from, left, room)
		}
		lw, err := e.launched(st, err)
		w.add(lw)
		w.launches++
		if from, left = next, left-took; err != nil || left == 0 {
			return w, err
		}
	}
}

func (e *gpuEngine[T]) modeled(w work) time.Duration { return w.kernel }

func (e *gpuEngine[T]) stage(n uint64) time.Duration {
	return e.dev.Config().TransferTime(int64(n))
}

func (e *gpuEngine[T]) counted() countedTable { return e.table }

func (e *gpuEngine[T]) newBin() {
	e.table = kcount.NewAtomicTable(1, tableLoad, kcount.Linear)
	e.parseRows = nil // the closure owns the packed send rows
}
