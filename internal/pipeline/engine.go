package pipeline

import (
	"fmt"
	"math"
	"sort"
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
	// ORIGINAL world: the key→rank map never changes across restarts
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
	// asks only the GPU engine, the one that stages.
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
	Escaped() int
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
	meter    kernels.WorkMeter  // CPU engines; the GPU count notes only its k-mers in Items
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
			return indexKmers(dev, rows), nil
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
			in, err := kernels.IndexSupermers(dev, wire, rows)
			return supermerArrival{in}, err
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

// keySlice selects the k-mers one pass over an arrival inserts: all of them,
// or the keys inside or outside one fixed sixteenth of key space. Both
// engines size their table from the sample slice of an arrival that does not
// fit it: the CPU engine's countProvisioned, the GPU engine's count.
type keySlice int

const (
	allKeys keySlice = iota
	sampleKeys
	otherKeys
)

// sliceOdds is how many keys lie outside the sample for each one inside it.
const sliceOdds = 15

// has reports whether the pass inserts key. The sample is kernels.InSample's
// slice, the one kernels.ParseKmers ships first in every part.
func (s keySlice) has(key uint64) bool {
	return s == allKeys || kernels.InSample(key) == (s == sampleKeys)
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
// count kernel can be launched over successive windows of them, in a pass
// over each slice of key space.
type arrival interface {
	// Kmers returns the k-mers the rows hold.
	Kmers() int
	// span returns the first item of a pass over sel's keys and the k-mers
	// its windows walk: in k-mer mode the sample prefixes of the parts, or
	// the rest; in supermer mode, where the slice cannot be a prefix, every
	// image, filtered by the kernel.
	span(sel keySlice) (from, kmers int)
	// sampled returns the keys the pass over the sample slice is sized for:
	// the sample prefixes' k-mers in k-mer mode, a sixteenth of the k-mers
	// in supermer mode.
	sampled() int
	// Count launches the count kernel over the window of at most budget
	// k-mers that starts at item from, inserting sel's keys; it returns the
	// item after the window and the k-mers the window walked.
	Count(table *kcount.AtomicTable, sel keySlice, from, budget int) (next, kmers int, st gpusim.KernelStats, err error)
}

// kmerArrival is a k-mer arrival indexed as [every part's sample prefix |
// every part's rest], views of the received parts with no copy. ParseKmers
// ships each part sample first, so a binary search finds where its sample
// ends; a part that was not (spilled rows, a shrunk seat's folded rows) is
// cut somewhere, and still counts every k-mer exactly once — only the
// estimate the sample gives is worse.
type kmerArrival struct {
	in     *kernels.KmerArrival
	sample int // k-mers of the sample prefixes, items [0, sample)
}

func indexKmers(dev *gpusim.Device, parts [][]uint64) kmerArrival {
	views := make([][]uint64, 2*len(parts))
	sample := 0
	for i, part := range parts {
		cut := sort.Search(len(part), func(j int) bool { return !sampleKeys.has(part[j]) })
		views[i], views[len(parts)+i] = part[:cut], part[cut:]
		sample += cut
	}
	return kmerArrival{kernels.IndexKmers(dev, views), sample}
}

func (a kmerArrival) Kmers() int   { return a.in.Kmers() }
func (a kmerArrival) sampled() int { return a.sample }

func (a kmerArrival) span(sel keySlice) (int, int) {
	switch sel {
	case sampleKeys:
		return 0, a.sample
	case otherKeys:
		return a.sample, a.Kmers() - a.sample
	}
	return 0, a.Kmers()
}

func (a kmerArrival) Count(table *kcount.AtomicTable, _ keySlice, from, budget int) (int, int, gpusim.KernelStats, error) {
	return a.in.Count(table, from, budget)
}

// supermerArrival is a supermer arrival, whose passes over a slice of key
// space walk every image and insert the slice's keys.
type supermerArrival struct{ in *kernels.SupermerArrival }

func (a supermerArrival) Kmers() int               { return a.in.Kmers() }
func (a supermerArrival) sampled() int             { return a.Kmers() / (sliceOdds + 1) }
func (a supermerArrival) span(keySlice) (int, int) { return 0, a.Kmers() }

func (a supermerArrival) Count(table *kcount.AtomicTable, sel keySlice, from, budget int) (int, int, gpusim.KernelStats, error) {
	var keep func(uint64) bool
	if sel != allKeys {
		keep = sel.has
	}
	return a.in.Count(table, from, budget, keep)
}

// minLaunch is the arrival size up to which a count is one launch, and the
// window a pass keeps the table large enough for, a quarter of it at least:
// below it a launch is overhead-bound (the 5 µs launch overhead is ≈ 550
// k-mers of V100 count time).
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

// count inserts the rows into a table sized, once, for the keys they hold. An
// arrival that fits the room under the load ceiling, or holds at most
// minLaunch k-mers, is one launch; if it does not fit, the table first grows
// to room for the arrival or for as many keys again as its ceiling, whichever
// is more, so a run of small arrivals grows it geometrically. Any other
// arrival is its own sample: a pass over the sample slice — in k-mer mode one
// launch over the parts' sample prefixes, with room reserved for every k-mer
// they hold; then one Reserve for the keys that pass found new, fifteen times
// over with a margin (see estimate), never more than the k-mers the rest
// holds — and, once the table holds more keys than that, for as many as it
// holds, so later arrivals grow it geometrically too; then a pass over the
// rest. The table's capacity follows the keys the sample stands for, not a
// ladder of doublings, and its keys are rehashed once, while it holds only
// the sample's. The estimate may fall short: each launch takes at most the
// table's free slots, so none can fill it, and when those fall short of a
// worthwhile launch the table grows first; after the arrival one Reserve
// restores the load ceiling.
func (e *gpuEngine[T]) count(recv [][]T) (w work, err error) {
	in, err := e.index(e.dev, recv)
	if err != nil {
		return w, err
	}
	n := in.Kmers()
	w.meter.AddItems(n)
	if n <= e.table.Room() || n <= minLaunch {
		e.reserve(&w, max(n, e.table.Ceiling()), n)
		return w, e.pass(&w, in, allKeys)
	}
	held := e.table.Len()
	e.reserve(&w, in.sampled(), in.sampled())
	if err := e.pass(&w, in, sampleKeys); err != nil {
		return w, err
	}
	_, rest := in.span(otherKeys)
	more := min(estimate(e.table.Len()-held), rest)
	e.reserve(&w, max(more, e.table.Len()), more)
	if err := e.pass(&w, in, otherKeys); err != nil {
		return w, err
	}
	e.reserve(&w, 0, 0)
	return w, nil
}

// estimate returns the new keys to reserve room for behind a sample pass that
// found fresh: fifteen for each, and four standard deviations of the
// sample's count more. The margin is what makes the table's size final:
// capacities are exact, so an estimate a few hundred keys short overflows
// the ceiling and the count ends by rehashing every key — on an input of the
// lr8 benchmark's shape, without the margin, five ranks of twelve did, and
// with it (3.9 % of 168 k keys) none; its price is a load of 0.48 instead of
// 0.5.
func estimate(fresh int) int {
	return (fresh + 4*int(math.Sqrt(float64(fresh)))) * sliceOdds
}

// reserve grows the table by room for incoming more keys when it has no
// room for need of them, timing the growth and noting the keys reserved for.
func (e *gpuEngine[T]) reserve(w *work, incoming, need int) {
	if need <= e.table.Room() {
		return
	}
	w.reserved = max(w.reserved, e.table.Len()+incoming)
	began := time.Now()
	e.table.Reserve(incoming)
	w.grow += time.Since(began)
}

// pass launches the count kernel over in's span for sel, in windows of at
// most the table's free slots — a launch of n k-mers adds at most n keys, so
// none can fill the table, and ErrTableFull cannot occur. A table within its
// load ceiling has half its slots free, and its keys fit: the windows shrink
// only with the keys the launches add. The table grows first, geometrically
// — by room for as many keys again as its ceiling, or for what is left up to
// minLaunch if that is more — when a launch has taken it past its ceiling
// (the estimate fell short), or when its free slots fall short of a quarter
// of what is left up to minLaunch (a table too small for a launch to pay its
// overhead). Either way every window then holds a whole supermer and every
// launch makes progress. An empty span is no launch.
func (e *gpuEngine[T]) pass(w *work, in arrival, sel keySlice) error {
	from, left := in.span(sel)
	for left > 0 {
		if want := min(left, minLaunch); e.table.Room() < 0 || e.free() < want/4 {
			grow := max(want, e.table.Ceiling())
			e.reserve(w, grow, grow)
		}
		budget := min(left, e.free())
		if budget <= 0 {
			return fmt.Errorf("pipeline: count window at item %d has a budget of %d for %d k-mers", from, budget, left)
		}
		next, took, st, err := in.Count(e.table, sel, from, budget)
		if err == nil && took == 0 {
			err = fmt.Errorf("pipeline: count launch at item %d took none of %d k-mers (budget %d)", from, left, budget)
		}
		lw, err := e.launched(st, err)
		w.add(lw)
		w.launches++
		if err != nil {
			return err
		}
		from, left = next, left-took
	}
	return nil
}

// free returns the table's empty slots but one: a window of at most that many
// k-mers leaves an empty slot, where every probe sequence of a missing key
// ends.
func (e *gpuEngine[T]) free() int { return e.table.Cap() - e.table.Len() - 1 }

func (e *gpuEngine[T]) modeled(w work) time.Duration { return w.kernel }

func (e *gpuEngine[T]) stage(n uint64) time.Duration {
	return e.dev.Config().TransferTime(int64(n))
}

func (e *gpuEngine[T]) counted() countedTable { return e.table }

func (e *gpuEngine[T]) newBin() {
	e.table = kcount.NewAtomicTable(1, tableLoad, kcount.Linear)
	e.parseRows = nil // the closure owns the packed send rows
}
