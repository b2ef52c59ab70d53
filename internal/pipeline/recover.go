package pipeline

import (
	"errors"
	"fmt"
	"sort"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/kcount"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// This file wires the durable-state layer (internal/recover) into the
// round loop: rank seats that survive communicator shrinks, the periodic
// checkpoint protocol, the shrink-recovery reload, and ResumeStream.
// See DESIGN.md §12 for the safety argument.

// rankSeat is one rank body's identity across communicator shrinks. The
// engines always partition keys over the ORIGINAL world (NumDest =
// nOrig) so checkpointed slices stay valid no matter how many ranks have
// died; the seat then folds the nOrig-row send set onto the current
// communicator via the successor remap. old is this seat's original rank
// id — the coordinate used for fault rolls and observability, so the
// injector's schedule and the report's rank axis stay stable across
// shrinks.
type rankSeat struct {
	old   int
	nOrig int
	// slots[i] is the original rank running as current-comm rank i
	// (identity until a shrink).
	slots []int
	// remap[d] is the current-comm rank owning original destination d:
	// the index in slots of recov.Successor(d, dead).
	remap []int
	// base is the first round this seat executes (man.Round+1 after a
	// resume or reload).
	base int
	// seed holds checkpointed spectrum slices to preload into the seat's
	// table before the round loop starts: its own slice plus those of
	// dead ranks it inherited.
	seed []*kcount.Database
	// degraded carries a resumed manifest's Incomplete bit into the
	// seat's outcome: a checkpoint taken after a degraded round stays a
	// lower bound when resumed.
	degraded bool
}

// identitySeat is the no-recovery seat: full world, round 0, no seed.
func identitySeat(rank, nOrig int) *rankSeat {
	slots := make([]int, nOrig)
	for i := range slots {
		slots[i] = i
	}
	return &rankSeat{old: rank, nOrig: nOrig, slots: slots}
}

// buildRemap rebuilds the successor remap for the given dead set (over
// original rank ids). Every key keeps its kernels.DestOf destination;
// dead destinations forward to their successor's seat.
func (s *rankSeat) buildRemap(dead []bool) error {
	idx := make(map[int]int, len(s.slots))
	for i, o := range s.slots {
		idx[o] = i
	}
	if s.remap == nil || len(s.remap) != s.nOrig {
		s.remap = make([]int, s.nOrig)
	}
	for d := 0; d < s.nOrig; d++ {
		o := recov.Successor(d, dead)
		if o < 0 {
			return fmt.Errorf("pipeline: every rank dead, nothing to remap to")
		}
		r, ok := idx[o]
		if !ok {
			return fmt.Errorf("pipeline: successor %d of destination %d is not a live slot", o, d)
		}
		s.remap[d] = r
	}
	return nil
}

// route folds an nOrig-row send set onto the current communicator. Every
// row, in and out, lies behind h units of frame-header room. Identity seats
// pass the rows through untouched; shrunk seats concatenate each dead
// destination's row onto its successor's behind one header's room (counting
// is order-invariant, so the fold preserves the spectrum exactly; k-mer
// words and fixed-stride supermer images both concatenate whole). buf is
// per-caller pooled scratch — the overlapped schedule routes two rounds
// concurrently, so each parity owns its own.
func route[T unit](s *rankSeat, send [][]T, h int, buf *[][]T) [][]T {
	if len(s.slots) == s.nOrig {
		return send // identity: no rank has died
	}
	out := headRows(*buf, len(s.slots), h)
	for d, row := range send {
		r := s.remap[d]
		out[r] = append(out[r], row[h:]...)
	}
	*buf = out
	return out
}

// deadOf derives the dead set implied by this seat's live slots.
func (s *rankSeat) deadOf() []bool {
	dead := make([]bool, s.nOrig)
	for d := range dead {
		dead[d] = true
	}
	for _, o := range s.slots {
		dead[o] = false
	}
	return dead
}

// ckptCtl drives the periodic checkpoint protocol shared by all ranks of
// a checkpointing run.
type ckptCtl struct {
	dir    string
	every  int
	fp     recov.Fingerprint
	fphash uint64
	flags  uint32
	k      int
	prod   *chunkProducer
	rec    *obs.Recorder
}

func newCkptCtl(cfg Config, prod *chunkProducer) *ckptCtl {
	fp := buildFingerprint(cfg)
	var flags uint32
	if cfg.Canonical {
		flags |= kcount.FlagCanonical
	}
	return &ckptCtl{
		dir: cfg.Ckpt.Dir, every: cfg.Ckpt.every(),
		fp: fp, fphash: fp.Hash(), flags: flags, k: cfg.K,
		prod: prod, rec: cfg.Obs,
	}
}

// at reports whether round r checkpoints — a pure function of r, so
// every rank (and a resumed run) agrees on the checkpoint schedule.
func (ck *ckptCtl) at(r int) bool { return (r+1)%ck.every == 0 }

// write persists one rank's slice and, on comm rank 0, the manifest, in
// crash-safe order: all slices land (the AllreduceSum is the collective
// round barrier, doubling as the degraded-state agreement), then the
// manifest (tmp+rename — a crash mid-protocol leaves the previous
// checkpoint intact and loadable), then a barrier so no rank runs ahead
// of a durable manifest, then stale-round cleanup.
func (ck *ckptCtl) write(c *mpisim.Comm, seat *rankSeat, r int, db *kcount.Database, out *rankOutcome) error {
	sp := ck.rec.Begin(seat.old, r, obs.PhaseCkpt)
	slot := c.Rank()
	if err := recov.SaveRankFile(ck.dir, r, slot, ck.fphash, db); err != nil {
		sp.End(0, 0)
		return err
	}
	var degraded uint64
	if out.incomplete {
		degraded = 1
	}
	worldDegraded, err := c.AllreduceSum(degraded)
	if err != nil {
		sp.End(0, 0)
		return err
	}
	if slot == 0 {
		cursor, reads, bases := ck.prod.ckptCursor()
		man := &recov.Manifest{
			Fingerprint: ck.fp,
			Round:       r,
			Cursor:      cursor,
			Reads:       reads,
			Bases:       bases,
			Survivors:   append([]int(nil), seat.slots...),
			Dead:        deadList(seat.deadOf()),
			Incomplete:  worldDegraded > 0,
		}
		if err := recov.SaveManifest(ck.dir, man); err != nil {
			sp.End(0, 0)
			return err
		}
	}
	if err := c.Barrier(); err != nil {
		sp.End(0, 0)
		return err
	}
	if slot == 0 {
		recov.RemoveStale(ck.dir, r)
	}
	out.ckpts++
	ck.rec.Instant(seat.old, r, obs.EvCkpt)
	sp.End(0, uint64(db.Len()))
	return nil
}

// recoverRT is the shrink-recovery runtime handed to rank bodies when
// Config.Ckpt enables in-place recovery.
type recoverRT struct {
	ck     *ckptCtl
	prod   *chunkProducer
	reopen func(fastq.Cursor) (fastq.Source, error)
	rec    *obs.Recorder
}

// shrinkReload runs one survivor's half of the recovery protocol after
// ErrPeerDead: shrink the communicator, agree on the dead set, rebuild
// the ownership remap, reload the latest checkpoint (or reset to round 0
// when none exists yet), and re-feed the shared source from the recorded
// cursor. On return the caller restarts its engine segment from
// seat.base with seat.seed preloaded; the replay is deterministic, so
// the merged spectrum is bit-identical to an unfaulted run's.
func (rv *recoverRT) shrinkReload(c *mpisim.Comm, seat *rankSeat, out *rankOutcome) error {
	sp := rv.rec.Begin(seat.old, -1, obs.PhaseRecovery)
	prev, err := c.Shrink()
	if err != nil {
		sp.End(0, 0)
		return err
	}
	// prev maps new comm rank → previous-world rank; compose with the
	// seat's previous slots to reach original ids.
	newSlots := make([]int, len(prev))
	for i, p := range prev {
		newSlots[i] = seat.slots[p]
	}
	seat.slots = newSlots
	if seat.slots[c.Rank()] != seat.old {
		sp.End(0, 0)
		return fmt.Errorf("pipeline: seat %d landed on slot %d owned by %d after shrink", seat.old, c.Rank(), seat.slots[c.Rank()])
	}
	dead := seat.deadOf()

	// Agree on the dead set collectively: each survivor contributes its
	// local view as a bit mask and the OR is the union. The views are
	// derived from the same shrink, so any mismatch means the worlds
	// diverged — fail loudly rather than count on a wrong partition.
	for base := 0; base < seat.nOrig; base += 64 {
		var mask uint64
		for i := 0; i < 64 && base+i < seat.nOrig; i++ {
			if dead[base+i] {
				mask |= 1 << uint(i)
			}
		}
		agreed, err := c.AllreduceOr(mask)
		if err != nil {
			sp.End(0, 0)
			return err
		}
		if agreed != mask {
			sp.End(0, 0)
			return fmt.Errorf("pipeline: dead-set disagreement after shrink: local %x, union %x", mask, agreed)
		}
	}
	if err := seat.buildRemap(dead); err != nil {
		sp.End(0, 0)
		return err
	}

	// Reload the latest checkpoint. No manifest yet means no round ever
	// checkpointed: replay from the start of the stream.
	man, err := recov.LoadManifest(rv.ck.dir)
	if err != nil && !errors.Is(err, recov.ErrNoCheckpoint) {
		sp.End(0, 0)
		return err
	}
	seat.seed = nil
	seat.base = 0
	var cursor fastq.Cursor
	var reads, bases uint64
	out.incomplete = false
	if man != nil {
		if man.Fingerprint.Hash() != rv.ck.fphash {
			sp.End(0, 0)
			return fmt.Errorf("pipeline: checkpoint in %s belongs to a different run: %w", rv.ck.dir, durable.ErrMismatch)
		}
		seat.base = man.Round + 1
		cursor, reads, bases = man.Cursor, man.Reads, man.Bases
		out.incomplete = man.Incomplete
		for j, oldID := range man.Survivors {
			// The checkpoint slot's keys were owned by oldID when it was
			// written; under the enlarged dead set their owner is
			// Successor(oldID, dead) — Successor composes over growing
			// dead sets, so this holds even when the checkpoint itself
			// postdates an earlier shrink.
			if recov.Successor(oldID, dead) != seat.old {
				continue
			}
			db, err := recov.LoadRankFile(recov.RankFilePath(rv.ck.dir, man.Round, j), man.Round, j, rv.ck.fphash)
			if err != nil {
				sp.End(0, 0)
				return err
			}
			seat.seed = append(seat.seed, db)
		}
	}

	// Re-feed the shared producer from the checkpoint cursor: the new
	// comm rank 0 reopens the source; everyone else waits on the
	// barrier. If the reopen fails, rank 0 dies before the barrier and
	// the survivors recurse into another shrink — each attempt loses a
	// rank, so the recursion terminates.
	if c.Rank() == 0 {
		src, err := rv.reopen(cursor)
		if err != nil {
			sp.End(0, 0)
			return err
		}
		if _, ok := src.(fastq.CursorSource); !ok {
			sp.End(0, 0)
			return fmt.Errorf("pipeline: Ckpt.Reopen returned a source without cursor support")
		}
		rv.prod.reset(src, reads, bases)
	}
	if err := c.Barrier(); err != nil {
		sp.End(0, 0)
		return err
	}
	out.recovered = true
	out.deadRanks = deadList(dead)
	out.replays++
	rv.rec.Instant(seat.old, -1, obs.EvShrink)
	sp.End(0, uint64(len(out.deadRanks)))
	return nil
}

// deadList converts a dead mask to a sorted id list.
func deadList(dead []bool) []int {
	var out []int
	for r, d := range dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// buildFingerprint derives the checkpoint fingerprint from the config:
// every field that changes the spectrum or its partition.
func buildFingerprint(cfg Config) recov.Fingerprint {
	engine := "cpu"
	if cfg.Layout.GPU != nil {
		engine = "gpu"
	}
	return recov.Fingerprint{
		K: cfg.K, M: cfg.M, Window: cfg.Window,
		Mode: cfg.Mode.String(), Engine: engine, Encoding: cfg.Enc.Name(),
		Canonical: cfg.Canonical,
		Ranks:     cfg.Layout.Ranks(), Nodes: cfg.Layout.Nodes,
		Inputs: cfg.Ckpt.Inputs,
	}
}

// ResumeStream continues a checkpointed streaming run: it validates the
// manifest in cfg.Ckpt.Dir against the config fingerprint (k, ranks,
// engine, encoding, mode, input list — resuming under a different
// configuration would merge incompatible state and is refused with
// durable.ErrMismatch), reopens the source fast-forwarded to the
// recorded cursor via cfg.Ckpt.Reopen, reloads each surviving slot's
// spectrum slice, and runs the round loop from the checkpointed round.
// The completed spectrum is bit-identical to an unfaulted run over the
// same input.
func ResumeStream(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ckpt.Dir == "" {
		return nil, fmt.Errorf("pipeline: ResumeStream needs Ckpt.Dir")
	}
	man, err := recov.LoadManifest(cfg.Ckpt.Dir)
	if err != nil {
		return nil, err
	}
	fp := buildFingerprint(cfg)
	if man.Fingerprint.Hash() != fp.Hash() {
		return nil, fmt.Errorf("pipeline: checkpoint in %s was taken under a different configuration (k=%d mode=%s engine=%s ranks=%d, want k=%d mode=%s engine=%s ranks=%d): %w",
			cfg.Ckpt.Dir,
			man.Fingerprint.K, man.Fingerprint.Mode, man.Fingerprint.Engine, man.Fingerprint.Ranks,
			fp.K, fp.Mode, fp.Engine, fp.Ranks, durable.ErrMismatch)
	}
	src, err := cfg.Ckpt.Reopen(man.Cursor)
	if err != nil {
		return nil, err
	}
	return runStream(cfg, src, man)
}

// seatsFromManifest rebuilds the world a checkpoint recorded: one seat
// per surviving slot, seeded from its slice file, starting at
// man.Round+1.
func seatsFromManifest(cfg Config, man *recov.Manifest, fphash uint64) ([]*rankSeat, error) {
	nOrig := cfg.Layout.Ranks()
	seats := make([]*rankSeat, len(man.Survivors))
	slots := append([]int(nil), man.Survivors...)
	for j, oldID := range man.Survivors {
		seat := &rankSeat{old: oldID, nOrig: nOrig, slots: slots, base: man.Round + 1}
		if err := seat.buildRemap(seat.deadOf()); err != nil {
			return nil, err
		}
		db, err := recov.LoadRankFile(recov.RankFilePath(cfg.Ckpt.Dir, man.Round, j), man.Round, j, fphash)
		if err != nil {
			return nil, err
		}
		seat.seed = []*kcount.Database{db}
		seat.degraded = man.Incomplete
		seats[j] = seat
	}
	return seats, nil
}

// mergeDead folds per-outcome dead lists into one sorted, deduplicated
// list for the Result.
func mergeDead(outcomes []rankOutcome) []int {
	seen := map[int]bool{}
	for i := range outcomes {
		for _, d := range outcomes[i].deadRanks {
			seen[d] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}
