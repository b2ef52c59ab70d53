package pipeline

import (
	"errors"
	"fmt"

	"dedukt/internal/durable"
	"dedukt/internal/fault"
	"dedukt/internal/kcount"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// This file wires the durable-state layer (internal/recover) into the
// round loop: rank seats that outlive the world they started in, the
// periodic checkpoint protocol, and the restart from the last checkpoint
// that both recovery after a rank death and ResumeStream go through. See
// DESIGN.md §12 for the safety argument.

// rankSeat is one original rank's place in a world. The engines always
// partition keys over the ORIGINAL world (NumDest = nOrig) so checkpointed
// slices stay valid no matter how many ranks have died; the seat then folds
// the nOrig-row send set onto the current communicator via the successor
// remap. old is this seat's original rank id — the coordinate used for
// fault rolls and observability, so the injector's schedule and the
// report's rank axis stay stable across restarts.
type rankSeat struct {
	old   int
	nOrig int
	// slots[i] is the original rank running as comm rank i (identity
	// until a rank dies).
	slots []int
	// remap[d] is the current-comm rank owning original destination d:
	// the index in slots of recov.Successor(d, dead).
	remap []int
	// base is the first round this seat executes (man.Round+1 after a
	// restart from a checkpoint).
	base int
	// seed holds checkpointed spectrum slices to preload into the seat's
	// table before the round loop starts: its own slice plus those of
	// dead ranks it inherited.
	seed []*kcount.Database
}

// route folds an nOrig-row send set onto the current communicator. Every
// row, in and out, lies behind h units of frame-header room. Identity seats
// pass the rows through untouched; the seats of a world that lost ranks
// concatenate each dead destination's row onto its successor's behind one
// header's room (counting is order-invariant, so the fold preserves the
// spectrum exactly; k-mer words and fixed-stride supermer images both
// concatenate whole). buf is per-caller pooled scratch: peers read the
// routed rows until they have counted the round, so each round parity owns
// its own (see "Buffer lifetimes" on runRounds).
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
// crash-safe order: all slices land (a barrier), then the manifest
// (tmp+rename — a crash mid-protocol leaves the previous checkpoint intact
// and loadable), then a barrier so no rank runs ahead of a durable
// manifest, then stale-round cleanup.
func (ck *ckptCtl) write(c *mpisim.Comm, seat *rankSeat, r int, db *kcount.Database, out *rankOutcome) error {
	sp := ck.rec.Begin(seat.old, r, obs.PhaseCkpt)
	slot := c.Rank()
	if err := recov.SaveRankFile(ck.dir, r, slot, ck.fphash, db); err != nil {
		sp.End(0, 0)
		return err
	}
	if err := c.Barrier(); err != nil {
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
	// The value ordering stays unnamed, so its checkpoints keep the hash
	// they had before orderings were fingerprinted.
	var ordering string
	if _, value := cfg.ordering().(minimizer.Value); cfg.Mode == SupermerMode && !value {
		ordering = cfg.ordering().Name()
	}
	return recov.Fingerprint{
		K: cfg.K, M: cfg.M, Window: cfg.Window,
		Mode: cfg.Mode.String(), Engine: engine, Encoding: cfg.Enc.Name(),
		Canonical: cfg.Canonical, Balanced: cfg.BalancedPartition, Ordering: ordering,
		Ranks: cfg.Layout.Ranks(), Nodes: cfg.Layout.Nodes,
		Inputs: cfg.Ckpt.Inputs,
	}
}

// checkFingerprint refuses a checkpoint taken under another configuration
// (k, ranks, engine, encoding, mode, input list): continuing it would merge
// incompatible state.
func checkFingerprint(cfg Config, man *recov.Manifest) error {
	fp := buildFingerprint(cfg)
	if man.Fingerprint.Hash() == fp.Hash() {
		return nil
	}
	return fmt.Errorf("pipeline: checkpoint in %s was taken under a different configuration (k=%d mode=%s engine=%s ranks=%d, want k=%d mode=%s engine=%s ranks=%d): %w",
		cfg.Ckpt.Dir,
		man.Fingerprint.K, man.Fingerprint.Mode, man.Fingerprint.Engine, man.Fingerprint.Ranks,
		fp.K, fp.Mode, fp.Engine, fp.Ranks, durable.ErrMismatch)
}

// ResumeStream continues a checkpointed streaming run: it validates the
// manifest in cfg.Ckpt.Dir against the config fingerprint (a mismatch is
// refused with durable.ErrMismatch), then restarts the run from it exactly
// as a run restarts after a rank death (see runStream): the manifest's
// surviving ranks reload their spectrum slices and the input reopens at
// the recorded cursor via cfg.Ckpt.Reopen. The completed spectrum is
// bit-identical to an unfaulted run over the same input.
func ResumeStream(cfg Config) (*Result, error) {
	if err := cfg.Validate(Resuming); err != nil {
		return nil, err
	}
	man, err := recov.LoadManifest(cfg.Ckpt.Dir)
	if err != nil {
		return nil, err
	}
	if err := checkFingerprint(cfg, man); err != nil {
		return nil, err
	}
	return runStream(cfg, Resuming, nil, nil, cfg.streamRoundBases())
}

// restart readies the world that continues a run from the last checkpoint
// in cfg.Ckpt.Dir — none yet meaning round 0 with no seeds — on the ranks
// dead spares: their seats (seatsFromManifest, which also marks dead the
// ranks the checkpoint lost) and a producer dealing share bases a seat
// from the input reopened at the checkpoint's cursor, seeded with its read
// and base tallies.
func restart(cfg Config, dead []bool, share int) ([]*rankSeat, *chunkProducer, error) {
	man, err := recov.LoadManifest(cfg.Ckpt.Dir)
	switch {
	case errors.Is(err, recov.ErrNoCheckpoint):
		man, err = &recov.Manifest{Round: -1}, nil
	case err == nil:
		err = checkFingerprint(cfg, man)
	}
	if err != nil {
		return nil, nil, err
	}
	seats, err := seatsFromManifest(cfg, man, dead)
	if err != nil {
		return nil, nil, err
	}
	src, err := cfg.Ckpt.Reopen(man.Cursor)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: reopening the input at the checkpoint: %w", err)
	}
	prod := newChunkProducer(cfg, src, share, len(seats), man.Round+1)
	prod.reads, prod.bases = man.Reads, man.Bases
	return seats, prod, nil
}

// seatsFromManifest builds the seats of a world continuing from man: one
// per original rank not in dead, starting at round man.Round+1. It first
// marks dead every rank man itself records as lost. A seat is seeded from
// every slot file j whose rank man.Survivors[j] hands its keys to the
// seat's rank under dead — recov.Successor composes over growing dead
// sets, so this holds when man postdates earlier deaths. A nil man (no
// checkpoint) seeds nothing and starts at round 0.
func seatsFromManifest(cfg Config, man *recov.Manifest, dead []bool) ([]*rankSeat, error) {
	nOrig := cfg.Layout.Ranks()
	if man == nil {
		man = &recov.Manifest{Round: -1}
	}
	for _, d := range man.Dead {
		dead[d] = true
	}
	var slots []int
	idx := make([]int, nOrig) // comm rank of each live original rank
	for r := 0; r < nOrig; r++ {
		if !dead[r] {
			idx[r] = len(slots)
			slots = append(slots, r)
		}
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("pipeline: every rank dead, nothing to restart on")
	}
	remap := make([]int, nOrig)
	for d := range remap {
		remap[d] = idx[recov.Successor(d, dead)]
	}
	fphash := buildFingerprint(cfg).Hash()
	seats := make([]*rankSeat, len(slots))
	for i, old := range slots {
		seats[i] = &rankSeat{old: old, nOrig: nOrig, slots: slots, remap: remap, base: man.Round + 1}
		for j, id := range man.Survivors {
			if recov.Successor(id, dead) != old {
				continue
			}
			db, err := recov.LoadRankFile(recov.RankFilePath(cfg.Ckpt.Dir, man.Round, j), man.Round, j, fphash)
			if err != nil {
				return nil, err
			}
			seats[i].seed = append(seats[i].seed, db)
		}
	}
	return seats, nil
}

// restartable classifies a failed world by its ranks' errors. The
// survivors may restart without the ranks in killed (slots of the world)
// only when every failed rank was killed (fault.ErrKilled) or saw a peer
// die (mpisim.ErrPeerDead), and at least one rank was not killed. Any
// other failure — a collective deadline, a panic, an I/O error such as a
// checkpoint write on a full disk, an exchange lost past its retries
// (ErrExchangeLost, which a replay would lose the same way) — fails the
// run.
func restartable(errs []error) (killed []int, ok bool) {
	for slot, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, fault.ErrKilled):
			killed = append(killed, slot)
		case !errors.Is(err, mpisim.ErrPeerDead):
			return nil, false
		}
	}
	return killed, len(killed) > 0 && len(killed) < len(errs)
}
