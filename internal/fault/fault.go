// Package fault is the deterministic fault injector of the reproduction's
// robustness layer. The paper's pipeline is bulk-synchronous: one slow,
// dead, or corrupting rank stalls or poisons every collective of Alg. 1.
// This package manufactures exactly those failures — on a seeded,
// replayable schedule — so the exchange path's detection and recovery
// machinery (checksummed frames, collective deadlines, round-level retry;
// see DESIGN.md §7) can be exercised and regression-tested.
//
// Every decision is a pure function of (seed, fault kind, rank, round,
// attempt, destination): the same seed replays the same fault schedule on
// every run, and a retry (attempt+1) re-rolls the dice, so transient faults
// clear under retry while the schedule stays reproducible.
package fault

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"dedukt/internal/hash"
	"dedukt/internal/obs"
)

// ErrKilled marks a rank terminated by the injector; pipeline rank bodies
// return it (wrapped with rank/round context) when their kill roll fires.
var ErrKilled = errors.New("fault: rank killed by injector")

// Config sets the per-event fault probabilities. The zero value injects
// nothing.
type Config struct {
	// Seed selects the fault schedule; the same seed replays the same
	// faults.
	Seed uint64
	// Kill is the per-(rank, round) probability that the rank dies at the
	// start of the round, abandoning its peers mid-collective.
	Kill float64
	// Delay is the per-(rank, round) probability that the rank stalls for
	// DelayFor before the round (a straggler).
	Delay float64
	// DelayFor is the straggler stall length (default 2ms).
	DelayFor time.Duration
	// Drop is the per-payload probability — rolled per (rank, round,
	// attempt, destination) — that the payload vanishes in flight: the
	// destination receives nothing from this rank.
	Drop float64
	// Corrupt is the per-payload probability that one bit of the framed
	// payload flips in flight.
	Corrupt float64
	// FatalKill schedules one deterministic, permanent rank death:
	// FatalRank dies at the start of round FatalRound and never comes
	// back (unlike the probabilistic Kill, which a replay may re-roll
	// past). This is the recovery subsystem's test fixture: checkpoint /
	// resume and the restart after a rank death need a kill that is
	// certain to fire at a known round. The zero value (false) is inert.
	FatalKill  bool
	FatalRank  int
	FatalRound int
}

// Validate checks the probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"kill", c.Kill}, {"delay", c.Delay}, {"drop", c.Drop}, {"corrupt", c.Corrupt}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.DelayFor < 0 {
		return fmt.Errorf("fault: negative delay %v", c.DelayFor)
	}
	if c.FatalKill && (c.FatalRank < 0 || c.FatalRound < 0) {
		return fmt.Errorf("fault: fatal kill at rank %d round %d (both must be >= 0)", c.FatalRank, c.FatalRound)
	}
	return nil
}

// Counts tallies one rank's faults: what the injector did to it and what
// the recovery layer observed. All fields are cumulative over a run.
type Counts struct {
	// Injected events (sender side).
	Killed, Delayed, Dropped, Corrupted uint64
	// Observed events (receiver / recovery side): frames that failed
	// verification and rounds retried.
	BadFrames, Retries uint64
}

// Total returns the sum of injected events.
func (c Counts) Total() uint64 { return c.Killed + c.Delayed + c.Dropped + c.Corrupted }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Killed += other.Killed
	c.Delayed += other.Delayed
	c.Dropped += other.Dropped
	c.Corrupted += other.Corrupted
	c.BadFrames += other.BadFrames
	c.Retries += other.Retries
}

// atomicCounts is the concurrent mirror of Counts (ranks run as
// goroutines, so counters must be race-free).
type atomicCounts struct {
	killed, delayed, dropped, corrupted atomic.Uint64
	badFrames, retries                  atomic.Uint64
}

// Injector makes the seeded fault decisions and records per-rank tallies.
// All methods are safe for concurrent use by rank goroutines.
type Injector struct {
	cfg    Config
	counts []atomicCounts
}

// New builds an injector for a world of the given size. A zero Config
// yields an injector that never fires (the recovery counters still work).
func New(cfg Config, ranks int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("fault: non-positive world size %d", ranks)
	}
	if cfg.FatalKill && cfg.FatalRank >= ranks {
		return nil, fmt.Errorf("fault: fatal kill targets rank %d of a %d-rank world", cfg.FatalRank, ranks)
	}
	if cfg.DelayFor == 0 {
		cfg.DelayFor = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg, counts: make([]atomicCounts, ranks)}, nil
}

// Salts separate the decision streams of each fault kind.
const (
	killSalt    = 0x6b696c6c // "kill"
	delaySalt   = 0x736c6f77 // "slow"
	dropSalt    = 0x64726f70 // "drop"
	corruptSalt = 0x666c6970 // "flip"
	bitSalt     = 0x62697473 // "bits"
)

// roll returns a uniform [0,1) value determined by the seed, the salt, and
// the event coordinates.
func (in *Injector) roll(salt uint64, ids ...int) float64 {
	return float64(in.mix(salt, ids...)>>11) / (1 << 53)
}

func (in *Injector) mix(salt uint64, ids ...int) uint64 {
	x := in.cfg.Seed ^ salt
	for _, id := range ids {
		x = hash.Mix64Seeded(uint64(id)+0x9e3779b97f4a7c15, x)
	}
	return x
}

// Kill reports whether the rank dies at the start of the round, recording
// the event when it fires.
func (in *Injector) Kill(rank, round int) bool {
	if in.cfg.Kill == 0 || in.roll(killSalt, rank, round) >= in.cfg.Kill {
		return false
	}
	in.counts[rank].killed.Add(1)
	return true
}

// FatalKill reports whether the rank dies permanently at the start of the
// round — an exact (rank, round) match of the scheduled fatal kill, not a
// roll. It fires on any attempt at that round, including a replay after
// a restart that somehow revisits it, so recovery correctness cannot
// depend on the dead rank participating.
func (in *Injector) FatalKill(rank, round int) bool {
	if !in.cfg.FatalKill || rank != in.cfg.FatalRank || round != in.cfg.FatalRound {
		return false
	}
	in.counts[rank].killed.Add(1)
	return true
}

// Delay returns the straggler stall for the rank at the round (0 when the
// roll does not fire), recording the event when it does.
func (in *Injector) Delay(rank, round int) time.Duration {
	if in.cfg.Delay == 0 || in.roll(delaySalt, rank, round) >= in.cfg.Delay {
		return 0
	}
	in.counts[rank].delayed.Add(1)
	return in.cfg.DelayFor
}

// Drop reports whether the payload rank sends to dest on this (round,
// attempt) vanishes in flight.
func (in *Injector) Drop(rank, round, attempt, dest int) bool {
	if in.cfg.Drop == 0 || in.roll(dropSalt, rank, round, attempt, dest) >= in.cfg.Drop {
		return false
	}
	in.counts[rank].dropped.Add(1)
	return true
}

// Corrupt returns the frame with one bit flipped (in a copy) when the
// corruption roll fires, and the frame unchanged otherwise. The frame is a
// byte frame (supermer wire) or a word frame (packed k-mers); the flipped
// bit is the same pure function of (seed, rank, round, attempt, dest, frame
// bits) for both. It is a function, not a method, because Go methods cannot
// take type parameters.
func Corrupt[T byte | uint64](in *Injector, rank, round, attempt, dest int, frame []T) ([]T, bool) {
	if len(frame) == 0 || in.cfg.Corrupt == 0 ||
		in.roll(corruptSalt, rank, round, attempt, dest) >= in.cfg.Corrupt {
		return frame, false
	}
	width := uint64(bits.Len64(uint64(^T(0)))) // bits per frame unit: 8 or 64
	bit := in.mix(bitSalt, rank, round, attempt, dest) % (width * uint64(len(frame)))
	out := append([]T(nil), frame...)
	out[bit/width] ^= 1 << (bit % width)
	in.counts[rank].corrupted.Add(1)
	return out, true
}

// RecordBadFrames notes frames that failed verification on receive.
func (in *Injector) RecordBadFrames(rank int, n uint64) {
	if n > 0 {
		in.counts[rank].badFrames.Add(n)
	}
}

// RecordRetry notes one retried exchange round.
func (in *Injector) RecordRetry(rank int) { in.counts[rank].retries.Add(1) }

// RegisterMetrics publishes the injector's run-wide tallies into an
// observability registry: injected events by kind plus the recovery-side
// observations (bad frames, retries). Call after a run
// completes; counters accumulate across runs sharing one registry.
func (in *Injector) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var sum Counts
	for _, c := range in.Snapshot() {
		sum.Add(c)
	}
	for _, kv := range []struct {
		kind string
		n    uint64
	}{
		{"kill", sum.Killed}, {"delay", sum.Delayed},
		{"drop", sum.Dropped}, {"corrupt", sum.Corrupted},
	} {
		reg.Counter("fault_injected_total", "Injected fault events by kind.", obs.L("kind", kv.kind)).Add(kv.n)
	}
	reg.Counter("fault_bad_frames_total", "Frames that failed verification on receive.").Add(sum.BadFrames)
	reg.Counter("fault_retries_total", "Exchange rounds retried.").Add(sum.Retries)
}

// Snapshot returns the per-rank tallies.
func (in *Injector) Snapshot() []Counts {
	out := make([]Counts, len(in.counts))
	for r := range in.counts {
		c := &in.counts[r]
		out[r] = Counts{
			Killed:    c.killed.Load(),
			Delayed:   c.delayed.Load(),
			Dropped:   c.dropped.Load(),
			Corrupted: c.corrupted.Load(),
			BadFrames: c.badFrames.Load(),
			Retries:   c.retries.Load(),
		}
	}
	return out
}
