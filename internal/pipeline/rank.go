package pipeline

import (
	"strconv"
	"time"

	"dedukt/internal/fault"
	"dedukt/internal/kcount"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// rankCtx is everything one entry of the rank body is handed: the run-wide
// shared state, the world's chunk source, and this seat's communicator and
// outcome.
type rankCtx struct {
	cfg     Config
	destMap []uint16
	inj     *fault.Injector
	ck      *ckptCtl   // nil: no checkpointing
	rsp     *rankSpill // nil: in-memory counting
	c       *mpisim.Comm
	src     chunkSource
	seat    *rankSeat
	out     *rankOutcome
}

// roundState is one parity's pooled round scratch: the round's send rows
// (views into the engine's parseSlots-rotated buffers), their fold onto a
// shrunk communicator — which peers read until they have counted the
// round, hence a pair (see "Buffer lifetimes" on runRounds) — and what the
// exchange delivered. The round's bases are not among them: the chunk
// source owns them (see chunkProducer).
type roundState[T unit] struct {
	send     [][]T
	routed   [][]T
	bytesOut uint64
	recv     [][]T
}

// runRank is the one rank body: the three-phase round of Alg. 1 and Alg. 2
// — parse, many-to-many exchange, count — driven by runRounds until the
// world agrees the input is drained, then the final spectrum (or, in spill
// mode, the per-bin pass 2). The mode supplies the payload unit T and its
// codec; the engine supplies the two compute phases for the device.
func runRank[T unit](rc rankCtx, cd codec[T], newEngine func(rankCtx) (engine[T], error)) error {
	cfg, seat, out := rc.cfg, rc.seat, rc.out
	rec, rank := cfg.Obs, seat.old
	eng, err := newEngine(rc)
	if err != nil {
		return err
	}
	// The GPU pipeline bounces every buffer through a pinned host staging
	// area; the CPU has no such legs — no stage_h2d span, no modeled
	// staging time. Result.Staging reports the legs' total, so a GPUDirect
	// run is this one without them.
	staged := cfg.Layout.GPU != nil
	ex := newExchanger(&cfg, rc.c, seat, rc.inj, cd)
	var states [2]roundState[T]

	// Round-start faults fire once per executed round, before its parse.
	start := func(r int) error {
		return killOrStall(rc.inj, rank, r, rec)
	}

	// Stage + parse: take the round's chunk, model its host→device
	// transfer, and run the engine's parse into the parity slot.
	parse := func(r int) (bool, error) {
		st := &states[r%2]
		data, more, err := rc.src.deal(rc.c.Rank(), r)
		if err != nil {
			return false, err
		}
		if staged {
			sp := rec.Begin(rank, r, obs.PhaseStageH2D)
			h2dIn := eng.stage(uint64(len(data)))
			out.stage += h2dIn
			sp.End(h2dIn, uint64(len(data)))
		}

		sp := rec.Begin(rank, r, obs.PhaseParse)
		var w work
		st.send, w, err = eng.parse(r%parseSlots, data)
		if err != nil {
			sp.End(0, 0)
			return false, err
		}
		modeled := eng.modeled(w)
		out.parse += modeled
		out.parseOps += w.ops()
		out.parseSt.Add(w.stats)

		var sent uint64
		sent, st.bytesOut = tally(cd, st.send, cd.header())
		out.itemsSent += sent
		out.payloadSent += st.bytesOut
		sp.End(modeled, sent)
		return more, nil
	}

	// Exchange: ship the round's framed payloads behind the count
	// announcement (carrying the end-of-stream more flag), verify and retry
	// what arrives, and model the host staging legs. The received rows stay
	// in the parity slot for count.
	exchange := func(r int, more bool) (bool, error) {
		st := &states[r%2]
		sp := rec.Begin(rank, r, obs.PhaseExchange)
		recv, anyMore, err := ex.exchange(r, route(seat, st.send, cd.header(), &st.routed), more)
		if err != nil {
			sp.End(0, 0)
			return false, err
		}
		st.recv = recv
		items, bytesIn := tally(cd, recv, 0)
		var stage time.Duration
		if staged {
			stage = eng.stage(st.bytesOut) + eng.stage(bytesIn)
			out.stage += stage
		}
		sp.End(stage, items)
		return anyMore, nil
	}

	// Count: insert the round's received rows into this rank's table
	// partition in place; the span carries the k-mers inserted. In spill
	// mode (pass 1) the verified rows are appended to the rank's disk bins
	// instead and the insert is deferred to the per-bin pass below.
	count := func(r int) error {
		st := &states[r%2]
		if rc.rsp != nil {
			sp := rec.Begin(rank, r, obs.PhaseSpill)
			n, err := spill(rc.rsp, cd, st.recv)
			if err != nil {
				sp.End(0, 0)
				return err
			}
			sp.End(0, n)
			return nil
		}
		sp := rec.Begin(rank, r, obs.PhaseCount)
		w, err := eng.count(st.recv)
		if err != nil {
			sp.End(0, 0)
			return err
		}
		sp.End(chargeCount(out, eng, w), w.meter.Items)
		return nil
	}

	hooks := roundHooks{start: start, parse: parse, exchange: exchange, count: count}
	if ck := rc.ck; ck != nil {
		hooks.ckptAt = ck.at
		hooks.ckpt = func(r int) error {
			return ck.write(rc.c, seat, r, kcount.FromTable(serialTable(eng.counted()), cfg.K, ck.flags), out)
		}
	}
	rounds, err := runRounds(seat.base, hooks)
	if err != nil {
		return err
	}
	out.rounds = rounds

	if rc.rsp != nil {
		return countBins(eng, cd, rc.rsp, rec, rank, out)
	}
	table := eng.counted()
	out.sum = kcount.Summarize(table, topKPerRank)
	if cfg.KeepTables {
		out.table = serialTable(table)
	}
	var ts tableStats
	ts.observe(table)
	ts.publish(rec.Registry(), rank, out.sum.Total)
	out.publishCount(rec.Registry(), rank)
	return nil
}

// tableStats is the occupancy of the largest table a rank counted into: its
// one table at rank end, or the per-figure maximum over its pass-2 bin
// tables. Published per rank, it shows in -metrics-out an over-reservation
// (slots far above what the load factor needs), or a rehash storm and the
// keys it moved uncharged (kcount.AtomicTable.Reserve) — and, summed over
// the tables, the slots the inserts probed, which is what the load costs.
type tableStats struct {
	slots, grows, rehashed, escaped int
	load                            float64
	probes                          uint64
}

func (s *tableStats) observe(t countedTable) {
	s.slots = max(s.slots, t.Cap())
	s.grows = max(s.grows, t.Grows())
	s.rehashed = max(s.rehashed, t.Rehashed())
	s.escaped = max(s.escaped, t.Escaped())
	s.load = max(s.load, float64(t.Len())/float64(t.Cap()))
	s.probes += probesOf(t)
}

// probesOf returns the slots t's inserts have probed: the CPU engine's
// table keeps the figure in a field, the GPU engine's behind a method.
func probesOf(t countedTable) uint64 {
	if at, ok := t.(*kcount.AtomicTable); ok {
		return at.Probes()
	}
	return t.(*kcount.Table).Probes
}

// publish publishes the figures for a rank that counted kmers k-mers into
// the tables observed.
func (s tableStats) publish(reg *obs.Registry, rank int, kmers uint64) {
	if reg == nil {
		return
	}
	l := obs.L("rank", strconv.Itoa(rank))
	reg.Gauge("pipeline_table_probes_per_insert", "Slots the rank's inserts probed per k-mer counted (spill: over the pass-2 bin tables): the figure the load factor moves the modeled count by (a resumed rank's checkpointed entries were one insert each).", l).Set(float64(s.probes) / float64(max(kmers, 1)))
	reg.Gauge("pipeline_table_rehashed_keys", "Keys those rehashes re-inserted, which no modeled time is charged for (spill: most over the pass-2 bin tables).", l).Set(float64(s.rehashed))
	reg.Gauge("pipeline_table_slots", "Slots of the rank's counter table when counting ended (spill: largest pass-2 bin table).", l).Set(float64(s.slots))
	reg.Gauge("pipeline_table_bytes", "Host bytes those slots take: an 8-byte key and a one-byte count lane each (the modeled device table keeps a 4-byte count).", l).Set(float64(9 * s.slots))
	reg.Gauge("pipeline_table_escaped_keys", "Keys of the rank's counter table whose counts outgrew their one-byte lanes and live partly in the table's side map (spill: most over the pass-2 bin tables).", l).Set(float64(s.escaped))
	reg.Gauge("pipeline_table_load_factor", "Occupied share of those slots (spill: highest over the pass-2 bin tables).", l).Set(s.load)
	reg.Gauge("pipeline_table_grows", "Rehashes into a larger table the rank's counter table went through (spill: most over the pass-2 bin tables).", l).Set(float64(s.grows))
}

// publishCount publishes, beside the rank's table statistics, what its
// count phase did around the table: the count-kernel launches it made — an
// arrival cut into too many shows here — the wall time it spent growing the
// table between them, which no modeled time is charged for, and the most keys
// it reserved room for, to read against the keys the table ended with.
func (o *rankOutcome) publishCount(reg *obs.Registry, rank int) {
	if reg == nil {
		return
	}
	l := obs.L("rank", strconv.Itoa(rank))
	reg.Gauge("pipeline_count_launches", "Count-kernel launches the rank's count phase made (GPU engine; spill: over all pass-2 records).", l).Set(float64(o.launches))
	reg.Gauge("pipeline_table_grow_seconds", "Wall time the rank's count phase spent inside its counter table's Reserve, growing and rehashing it (spill: summed over the pass-2 bins; the doublings the CPU table makes on its own are not timed).", l).Set(o.grow.Seconds())
	reg.Gauge("pipeline_table_reserved_keys", "Most keys, held and expected, the rank's count phase asked its counter table to have room for (CPU engine: sized from the arrival's sample slice; spill: most over the pass-2 bins; 0: every arrival fit the room it found).", l).Set(float64(o.reserved))
}

// tally sums a row vector's exchanged items and payload bytes, each row
// lying behind h units of frame-header room (send rows; received rows are
// bare, h = 0).
func tally[T unit](cd codec[T], rows [][]T, h int) (items, bytes uint64) {
	for _, row := range rows {
		row = row[h:]
		items += uint64(cd.items(row))
		bytes += uint64(len(row))
	}
	return items, bytes * uint64(mpisim.UnitBytes[T]())
}

// chargeCount converts one count phase's metered work to modeled time and
// books both onto the outcome, returning the time for the caller's span.
func chargeCount[T unit](o *rankOutcome, eng engine[T], w work) time.Duration {
	modeled := eng.modeled(w)
	o.count += modeled
	o.countOps += w.ops()
	o.countSt.Add(w.stats)
	o.launches += w.launches
	o.grow += w.grow
	o.reserved = max(o.reserved, w.reserved)
	return modeled
}

// countBins is spill pass 2: seal the rank's bins, then count each one
// into a fresh working-set table — sized for that bin alone, never the
// whole spectrum slice — and fold the bin spectra into the outcome's
// summary. Bins partition the rank's key space, so the fold is
// bit-identical to the single-table path (see kcount.Summary).
func countBins[T unit](eng engine[T], cd codec[T], rsp *rankSpill, rec *obs.Recorder, rank int, out *rankOutcome) error {
	if err := rsp.seal(); err != nil {
		return err
	}
	out.sum = kcount.NewSummary(topKPerRank)
	var (
		row []T
		ts  tableStats
	)
	for b := 0; b < rsp.ctl.bins; b++ {
		// Pass-2 spans carry round -1: bin counting happens after the round
		// loop, like recovery (the other round-free phase).
		sp := rec.Begin(rank, -1, obs.PhaseBinCount)
		eng.newBin()
		var (
			binItems uint64
			binWork  work
		)
		err := rsp.readBin(b, func(payload []byte, items int) (err error) {
			if row, err = cd.unstage(payload, items, row); err != nil {
				return err
			}
			w, err := eng.count([][]T{row})
			binWork.add(w)
			binItems += uint64(items)
			return err
		})
		if err != nil {
			sp.End(0, 0)
			return err
		}
		table := eng.counted()
		table.ForEach(out.sum.Add)
		ts.observe(table)
		sp.End(chargeCount(out, eng, binWork), binItems)
	}
	ts.publish(rec.Registry(), rank, out.sum.Total)
	out.publishCount(rec.Registry(), rank)
	return nil
}
