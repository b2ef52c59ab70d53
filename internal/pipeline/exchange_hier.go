package pipeline

import (
	"errors"

	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// hierStrategy is the topology-aware two-stage exchange (DESIGN.md §15,
// mirroring the communication hierarchy of the Summit-era codes the paper
// cites): instead of the flat P×P Alltoallv, each round's frames travel
//
//	gather  — every rank ships its frames over the node tier: same-node
//	          frames straight to their destination, off-node frames onto
//	          its node leader (NodeAlltoallv: NVLink, free in wire terms);
//	leader  — the leaders run one L×L Alltoallv, L = ceil(P/RanksPerNode),
//	          each row batching every frame its node sends to one peer
//	          node — the only fabric hop;
//	scatter — leaders sort arrivals per member and deliver them over the
//	          node tier again.
//
// This cuts the fabric message count from P² to L² and batches the many
// small per-rank payloads into node-sized transfers, at the price of two
// intra-node copies. Frames are opaque to the routing: each travels inside
// a record [header, frame...] whose header packs (src, dest, length), so
// the receiving rank reassembles exactly the per-source frame vector the
// flat path would have delivered, and the exchanger's shared
// fault/verify/retry machinery runs unchanged.
//
// The strategy keeps its own parity-indexed slot pair, reused under the
// two-slot rule of rounds.go: peers read this rank's gather and scatter
// rows in place until they have counted the round. Topology is derived
// from the current communicator at construction time, so the world that
// restarts after a rank death re-groups the surviving (renumbered) ranks —
// a ragged last node, whether configured or left by a death, needs no
// special casing beyond ceil division.
type hierStrategy[T unit] struct {
	e     *exchanger[T]
	topo  mpisim.Topology
	slots [2]hierSlot[T]
}

// hierSlot is one parity's pooled routing state. Rows are truncated, never
// freed, so steady-state rounds do not allocate.
type hierSlot[T unit] struct {
	gather  [][]T // per-rank node-tier rows (stage 1 send)
	leader  [][]T // per-rank fabric rows, non-empty on leaders only
	scatter [][]T // per-member node-tier rows (stage 3 send)
	recv    [][]T // assembled per-source frames
}

// errHierContainer guards the record walk; the container never leaves
// mpisim's shared memory, so a malformed header means a routing bug, not a
// wire fault (wire faults corrupt frame payloads, which the CRC catches).
var errHierContainer = errors.New("pipeline: malformed hierarchical exchange container")

// A record header is one 64-bit value packing the source and destination
// rank (both current-communicator coordinates) and the frame length in
// payload units, laid out little-endian over 8/sizeof(T) units: one word,
// or eight bytes.
func hierHdr(src, dest, n int) uint64 {
	return uint64(src)<<48 | uint64(dest)<<32 | uint64(uint32(n))
}

func hierHdrFields(h uint64) (src, dest, n int) {
	return int(h >> 48), int(uint16(h >> 32)), int(uint32(h))
}

// appendRecord appends one [header, frame...] record to a container row.
func appendRecord[T unit](row []T, src, dest int, frame []T) []T {
	h := hierHdr(src, dest, len(frame))
	for shift, width := 0, 8*mpisim.UnitBytes[T](); shift < 64; shift += width {
		row = append(row, T(h>>shift))
	}
	return append(row, frame...)
}

// growRows resizes a pooled row vector to n rows, each truncated to zero
// length with capacity retained.
func growRows[T any](rows [][]T, n int) [][]T { return headRows(rows, n, 0) }

// headRows resizes a pooled row vector to n rows, each truncated to its
// first h units with capacity retained: the frame header's room a send row
// is appended behind, its contents unspecified until the exchange seals it.
func headRows[T any](rows [][]T, n, h int) [][]T {
	rows = grow(rows, n)
	for i, row := range rows {
		if cap(row) < h {
			row = make([]T, h)
		}
		rows[i] = row[:h]
	}
	return rows
}

// eachRecord walks a container, yielding each record's header fields and a
// capacity-clamped view of its frame.
func eachRecord[T unit](blob []T, fn func(src, dest int, frame []T)) error {
	width := 8 * mpisim.UnitBytes[T]()
	hdr := 64 / width
	for i := 0; i < len(blob); {
		if i+hdr > len(blob) {
			return errHierContainer
		}
		var h uint64
		for j := 0; j < hdr; j++ {
			h |= uint64(blob[i+j]) << (j * width)
		}
		src, dest, n := hierHdrFields(h)
		i += hdr
		if n < 0 || i+n > len(blob) {
			return errHierContainer
		}
		fn(src, dest, blob[i:i+n:i+n])
		i += n
	}
	return nil
}

func (s *hierStrategy[T]) ship(round int, frames [][]T) ([][]T, error) {
	e, c := s.e, s.e.c
	me, n := c.Rank(), c.Size()
	hs := &s.slots[round%2]

	// Stage 1: route each destination's frame over the node tier — direct
	// to same-node destinations, onto this rank's leader otherwise.
	hs.gather = growRows(hs.gather, n)
	leader := s.topo.LeaderOf(me)
	var packed uint64
	for d, f := range frames {
		row := d
		if !s.topo.SameNode(me, d) {
			row = leader
		}
		hs.gather[row] = appendRecord(hs.gather[row], me, d, f)
		packed++
	}
	sp := e.rec.Begin(e.rank, round, obs.PhaseGather)
	gat, err := mpisim.NodeAlltoallv(c, s.topo, hs.gather)
	sp.End(0, packed)
	if err != nil {
		return nil, err
	}

	// Leaders re-bucket the forwarded records by destination node; records
	// addressed to this node stay in gat for the assembly below.
	hs.leader = growRows(hs.leader, n)
	if s.topo.IsLeader(me) {
		for _, blob := range gat {
			err := eachRecord(blob, func(src, dest int, frame []T) {
				if s.topo.SameNode(me, dest) {
					return
				}
				lr := s.topo.LeaderOf(dest)
				hs.leader[lr] = appendRecord(hs.leader[lr], src, dest, frame)
			})
			if err != nil {
				return nil, err
			}
		}
	}

	// Stage 2: the L×L leader exchange (non-leader rows are all empty).
	sp = e.rec.Begin(e.rank, round, obs.PhaseLeader)
	lrecv, err := mpisim.Alltoallv(c, hs.leader)
	sp.End(0, 0)
	if err != nil {
		return nil, err
	}

	// Stage 3: leaders sort fabric arrivals into per-member rows (their
	// own records included — self-delivery through the scatter keeps the
	// stage uniform) and deliver over the node tier.
	hs.scatter = growRows(hs.scatter, n)
	if s.topo.IsLeader(me) {
		for _, blob := range lrecv {
			err := eachRecord(blob, func(src, dest int, frame []T) {
				hs.scatter[dest] = appendRecord(hs.scatter[dest], src, dest, frame)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	sp = e.rec.Begin(e.rank, round, obs.PhaseScatter)
	srecv, err := mpisim.NodeAlltoallv(c, s.topo, hs.scatter)
	sp.End(0, 0)
	if err != nil {
		return nil, err
	}

	// Assemble the per-source frame vector the shared verifier expects:
	// direct same-node frames from the gather stage (a leader also holds
	// forwarded records there — skipped by the dest filter), off-node
	// frames from the scatter. Every source ships a record; the nil reset
	// keeps a lost record from leaving a stale frame of an earlier round
	// in its place, which the verifier then rejects as a missing frame.
	hs.recv = grow(hs.recv, n)
	for i := range hs.recv {
		hs.recv[i] = nil
	}
	for _, stage := range [2][][]T{gat, srecv} {
		for _, blob := range stage {
			err := eachRecord(blob, func(src, dest int, frame []T) {
				if dest == me {
					hs.recv[src] = frame
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return hs.recv, nil
}
