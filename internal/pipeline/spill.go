package pipeline

// Two-pass out-of-core counting (DESIGN.md §16): with Config.Spill set,
// pass 1 runs the normal round loop but each rank appends its *received*
// (verified) items into minimizer-partitioned, CRC-framed bin files under
// Spill.Dir instead of growing one table holding its whole spectrum
// slice; pass 2 streams one bin at a time into a small working-set table
// and folds the bin spectra into the rank outcome. Because a key's bin is
// a pure function of the key (kmer mode) or of its minimizer (supermer
// mode — every k-mer of a supermer shares the supermer's minimizer), bins
// partition each rank's key set and the merged result is bit-identical to
// the in-memory path.
//
// Bins are written through internal/durable: a durable header, a CRC per
// record, a file sealed by an atomic rename, and damage reported in
// durable's vocabulary — a damaged bin can fail a run, but it can never
// silently count wrong data.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/obs"
)

// Spill bin file framing (all integers little-endian):
//
//	header  durable header: magic "DKSB", fields version uint16 (1),
//	        rank uint32 (original rank id that owns the bin), bin uint32
//	        (bin index on that rank), bins uint32 (bins per rank this run),
//	        fphash uint64 (recover.Fingerprint.Hash() of the run)
//
// followed by zero or more records:
//
//	items   uint32   exchanged units in the payload (words or images)
//	record  durable record: LE uint64 k-mer keys, or supermer wire images
//
// EOF at a record boundary is a clean end; EOF inside a record is
// durable.ErrTruncated.
const (
	spillMagic     = "DKSB"
	spillVersion   = 1
	spillFields    = 2 + 4 + 4 + 4 + 8 // version, rank, bin, bins, fphash
	spillHeaderLen = 4 + spillFields + 4
	spillExt       = ".spill"
	spillTmpSuffix = ".spill.tmp"
	// maxSpillRecord caps one record's payload allocation; real records
	// are bounded by a round's received payload, far below this.
	maxSpillRecord = 1 << 28
)

// spillHeader identifies one bin file.
type spillHeader struct {
	rank, bin, bins int
	fphash          uint64
}

// fields encodes the header's fields, version first.
func (h spillHeader) fields() []byte {
	b := binary.LittleEndian.AppendUint16(make([]byte, 0, spillFields), spillVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.bin))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.bins))
	return binary.LittleEndian.AppendUint64(b, h.fphash)
}

// readSpillHeader decodes and validates a bin's header.
func readSpillHeader(r io.Reader) (spillHeader, error) {
	b := make([]byte, spillFields)
	if err := durable.ReadHeader(r, spillMagic, spillVersion, b); err != nil {
		return spillHeader{}, fmt.Errorf("spill bin: %w", err)
	}
	return spillHeader{
		rank:   int(binary.LittleEndian.Uint32(b[2:6])),
		bin:    int(binary.LittleEndian.Uint32(b[6:10])),
		bins:   int(binary.LittleEndian.Uint32(b[10:14])),
		fphash: binary.LittleEndian.Uint64(b[14:22]),
	}, nil
}

// appendSpillRecord frames one record onto dst.
func appendSpillRecord(dst []byte, payload []byte, items int) []byte {
	return durable.AppendRecord(binary.LittleEndian.AppendUint32(dst, uint32(items)), payload)
}

// readSpillBin decodes a bin stream: header, then records until a clean
// EOF, calling fn with each verified payload (valid only during the
// call — the buffer is reused). want, when non-nil, pins the expected
// coordinates so a misnamed or foreign file can never be counted.
// Damage surfaces as a durable sentinel, never a panic.
func readSpillBin(r io.Reader, want *spillHeader, fn func(payload []byte, items int) error) error {
	h, err := readSpillHeader(r)
	if err != nil {
		return err
	}
	if want != nil && h != *want {
		return fmt.Errorf("spill bin holds rank %d bin %d/%d run %016x, want rank %d bin %d/%d run %016x: %w",
			h.rank, h.bin, h.bins, h.fphash, want.rank, want.bin, want.bins, want.fphash, durable.ErrMismatch)
	}
	var items [4]byte
	var payload []byte
	for {
		if n, err := durable.ReadFull(r, items[:]); err != nil {
			if n == 0 && errors.Is(err, durable.ErrTruncated) {
				return nil // clean end at a record boundary
			}
			return fmt.Errorf("spill record items: %w", err)
		}
		if payload, err = durable.ReadRecord(r, payload, maxSpillRecord); err != nil {
			return fmt.Errorf("spill %w", err)
		}
		if err := fn(payload, int(binary.LittleEndian.Uint32(items[:]))); err != nil {
			return err
		}
	}
}

// spillCtl is the run-wide spill state shared by every rank: the
// directory, bin geometry, run fingerprint, and the metrics the writers
// feed. Built once per run after the directory hygiene check.
type spillCtl struct {
	dir    string
	bins   int
	fphash uint64
	rec    *obs.Recorder
	// bytes and sealed are nil without a registry (the newExchanger
	// pattern: metric registration is guarded, recording is nil-checked).
	bytes  *obs.Counter
	sealed *obs.Counter
}

// newSpillCtl validates the spill directory and builds the shared state;
// nil when spilling is off.
func newSpillCtl(cfg Config) (*spillCtl, error) {
	if cfg.Spill.Dir == "" {
		return nil, nil
	}
	ctl := &spillCtl{
		dir:    cfg.Spill.Dir,
		bins:   cfg.Spill.bins(),
		fphash: buildFingerprint(cfg, fastq.Origin{}).Hash(),
		rec:    cfg.Obs,
	}
	if cfg.Obs != nil {
		if reg := cfg.Obs.Registry(); reg != nil {
			ctl.bytes = reg.Counter("pipeline_spill_bytes_total", "Payload bytes appended to spill bin files (pass 1).")
			ctl.sealed = reg.Counter("pipeline_spill_bins_total", "Spill bin files sealed for pass-2 counting.")
		}
	}
	if err := ctl.prepareDir(); err != nil {
		return nil, err
	}
	return ctl, nil
}

// prepareDir refuses a spill directory holding prior spill state — from
// a different configuration (counting into it would mix incompatible
// partitions) or from a killed process (.spill.tmp). Spill bins are
// scratch, not a resume format: a fresh run always starts from an empty
// bin set, so any leftover is a refusal with a clear reason, never silent
// reuse. Unrelated files are ignored — a shared temp dir stays usable.
func (ctl *spillCtl) prepareDir() error {
	if err := os.MkdirAll(ctl.dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(ctl.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, spillTmpSuffix):
			return fmt.Errorf("pipeline: spill dir %s holds partial bin %s from an interrupted run; remove it or use a fresh directory", ctl.dir, name)
		case strings.HasSuffix(name, spillExt):
			f, err := os.Open(filepath.Join(ctl.dir, name))
			if err != nil {
				return err
			}
			h, err := readSpillHeader(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("pipeline: spill dir %s holds unreadable bin %s: %w", ctl.dir, name, err)
			}
			if h.fphash != ctl.fphash || h.bins != ctl.bins {
				return fmt.Errorf("pipeline: spill dir %s holds bin %s from a different configuration (run %016x, %d bins; this run %016x, %d bins): %w",
					ctl.dir, name, h.fphash, h.bins, ctl.fphash, ctl.bins, durable.ErrMismatch)
			}
			return fmt.Errorf("pipeline: spill dir %s holds leftover bin %s from a previous run of this configuration; remove it or use a fresh directory", ctl.dir, name)
		}
	}
	return nil
}

// rank builds one rank's private spill writer set.
func (ctl *spillCtl) rank(rank int) *rankSpill {
	return &rankSpill{
		ctl:   ctl,
		rank:  rank,
		wr:    make([]*spillBinWriter, ctl.bins),
		stage: make([][]byte, ctl.bins),
		items: make([]int, ctl.bins),
	}
}

// spillBinWriter is one open bin file, written as .spill.tmp and renamed
// to .spill at seal time (durable.File), so a killed run never leaves a
// file pass 2 would mistake for complete. f is nil once sealed.
type spillBinWriter struct {
	f     *durable.File
	bw    *bufio.Writer
	frame []byte // pooled record-framing scratch
}

// rankSpill is one rank's pass-1 spill state: lazily opened bin writers
// plus per-round staging buffers that re-partition the received items
// into bins before appending one CRC record per non-empty bin.
type rankSpill struct {
	ctl   *spillCtl
	rank  int
	wr    []*spillBinWriter
	stage [][]byte
	items []int
}

// binPath returns the final path of one sealed bin file.
func (s *rankSpill) binPath(bin int) string {
	return filepath.Join(s.ctl.dir, fmt.Sprintf("r%04d-b%04d%s", s.rank, bin, spillExt))
}

// spill re-partitions one round's received rows into the rank's bins (the
// codec stages each item under its bin — see codec.stageBins) and appends
// each non-empty bin's staging as one record. Returns the items spilled
// (for the span) — the count hook's equivalent of the insert it defers to
// pass 2.
func spill[T unit](s *rankSpill, cd codec[T], rows [][]T) (uint64, error) {
	for b := range s.stage {
		s.stage[b], s.items[b] = s.stage[b][:0], 0
	}
	n, err := cd.stageBins(rows, s.stage, s.items)
	if err != nil {
		return n, err
	}
	return n, s.flushStage()
}

// flushStage appends each non-empty staging buffer as one record to its
// bin writer, opening writers lazily so empty bins get no file.
func (s *rankSpill) flushStage() error {
	for b := range s.stage {
		if len(s.stage[b]) == 0 {
			continue
		}
		w := s.wr[b]
		if w == nil {
			f, err := durable.Create(s.binPath(b)) // r%04d-b%04d.spill.tmp
			if err != nil {
				return err
			}
			w = &spillBinWriter{f: f, bw: bufio.NewWriter(f)}
			h := spillHeader{rank: s.rank, bin: b, bins: s.ctl.bins, fphash: s.ctl.fphash}
			if err := durable.WriteHeader(w.bw, spillMagic, h.fields()); err != nil {
				f.Abort()
				return err
			}
			s.wr[b] = w
		}
		w.frame = appendSpillRecord(w.frame[:0], s.stage[b], s.items[b])
		if _, err := w.bw.Write(w.frame); err != nil {
			return err
		}
		if s.ctl.bytes != nil {
			s.ctl.bytes.Add(uint64(len(s.stage[b])))
		}
	}
	return nil
}

// seal flushes, closes and atomically renames every open bin from
// .spill.tmp to .spill — the boundary between pass 1 and pass 2. After
// seal, a crash leaves only complete, named bins (plus whatever pass 2
// has not yet removed); before it, only .tmp files a fresh run refuses.
func (s *rankSpill) seal() error {
	for _, w := range s.wr {
		if w == nil {
			continue
		}
		if err := w.bw.Flush(); err != nil {
			return err
		}
		err := w.f.Commit()
		w.f = nil
		if err != nil {
			return err
		}
		if s.ctl.sealed != nil {
			s.ctl.sealed.Inc()
		}
	}
	return nil
}

// readBin streams one sealed bin's verified records through fn. A bin
// that never opened a writer is empty — valid, zero records.
func (s *rankSpill) readBin(bin int, fn func(payload []byte, items int) error) error {
	if s.wr[bin] == nil {
		return nil
	}
	f, err := os.Open(s.binPath(bin))
	if err != nil {
		return err
	}
	defer f.Close()
	want := spillHeader{rank: s.rank, bin: bin, bins: s.ctl.bins, fphash: s.ctl.fphash}
	if err := readSpillBin(bufio.NewReader(f), &want, fn); err != nil {
		return fmt.Errorf("%s: %w", s.binPath(bin), err)
	}
	return nil
}

// close disposes of this rank's bins when its body returns, whatever the
// outcome: an unsealed writer is aborted (its file closed, its .spill.tmp
// removed) and a sealed bin is removed. Failures are ignored — a leftover
// file only makes the next run's hygiene check refuse the directory.
func (s *rankSpill) close() {
	for b, w := range s.wr {
		switch {
		case w == nil:
		case w.f != nil:
			w.f.Abort()
		default:
			os.Remove(s.binPath(b))
		}
	}
}
