// Package recover is the durable-state layer of the pipeline's
// checkpoint/restart machinery (DESIGN.md §12) — both the offline resume
// and the in-process restart of the survivors after a rank death: it
// defines the on-disk checkpoint — one CRC-framed manifest plus one
// KCD-embedded spectrum slice per rank — and the deterministic successor
// function that reassigns a dead rank's key ownership to a survivor.
//
// A checkpoint directory holds, each written through durable.WriteFile
// (tmp+rename, manifest last):
//
//	MANIFEST                 the round/cursor manifest (see Manifest)
//	r<round>-s<slot>.ckpt    slot's spectrum slice at that round
//
// Readers report damage in durable's vocabulary: a short file surfaces
// durable.ErrTruncated, a full-length file with wrong bytes
// durable.ErrChecksum, and a file from a different run durable.ErrMismatch
// — a resume can fail, but it can never silently continue from the wrong
// state.
package recover

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/kcount"
)

// ErrNoCheckpoint reports a checkpoint directory with no manifest —
// nothing has been persisted yet, so recovery replays from the start.
// Damaged or foreign checkpoint files are reported in durable's vocabulary.
var ErrNoCheckpoint = errors.New("recover: no checkpoint manifest")

// Fingerprint identifies the run configuration a checkpoint belongs to.
// Every field changes what the spectrum or its partition looks like;
// resuming under a different value would merge incompatible state.
// Ordering names a supermer run's minimizer ordering, which decides every
// k-mer's owner rank; it is empty for the value ordering, so fingerprints
// taken before the field existed keep their hash. Inputs, TrimQ and
// TrimMinLen are the input's fastq.Origin: the files the cursor addresses
// (none for reads in memory) and the quality trim that decides which of
// their records count. They are empty on an untrimmed in-memory run, and
// the trim on any untrimmed run, so such runs keep their hash too.
type Fingerprint struct {
	K          int          `json:"k"`
	M          int          `json:"m,omitempty"`
	Window     int          `json:"window,omitempty"`
	Mode       string       `json:"mode"`
	Engine     string       `json:"engine"`
	Encoding   string       `json:"encoding"`
	Canonical  bool         `json:"canonical,omitempty"`
	Balanced   bool         `json:"balanced,omitempty"`
	Ordering   string       `json:"ordering,omitempty"`
	Ranks      int          `json:"ranks"`
	Nodes      int          `json:"nodes"`
	Inputs     []fastq.File `json:"inputs,omitempty"`
	TrimQ      int          `json:"trim_q,omitempty"`
	TrimMinLen int          `json:"trim_min_len,omitempty"`
}

// String returns the fingerprint's canonical JSON encoding.
func (f Fingerprint) String() string {
	b, err := json.Marshal(f)
	if err != nil {
		// Fingerprint is plain data; Marshal cannot fail on it.
		panic(err)
	}
	return string(b)
}

// Hash folds the fingerprint into the 64-bit stamp carried by every rank
// checkpoint file (FNV-1a over the canonical JSON encoding).
func (f Fingerprint) Hash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range []byte(f.String()) {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Manifest is the checkpoint's round/cursor record: everything a resume
// needs beyond the per-slot spectrum slices. It is written by slot 0
// after every slot's slice landed, so a directory with a manifest always
// has the matching slices.
type Manifest struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// Round is the last completed round covered by this checkpoint; the
	// resumed loop continues at Round+1.
	Round int `json:"round"`
	// Cursor is the streaming source position of the first record not
	// yet counted through Round.
	Cursor fastq.Cursor `json:"cursor"`
	// Reads and Bases are the input totals delivered through Round,
	// re-seeding the resumed producer's tallies.
	Reads uint64 `json:"reads"`
	Bases uint64 `json:"bases"`
	// Survivors maps checkpoint slot → original rank id. On an unfaulted
	// run it is the identity; once ranks have died it lists the live
	// ranks, and Dead the original ranks whose ownership was remapped
	// (see Successor).
	Survivors []int `json:"survivors"`
	Dead      []int `json:"dead,omitempty"`
}

// Manifest file framing (version 2; all integers little-endian):
//
//	header  durable header: magic "DKMF", fields version uint16
//	record  durable record: the Manifest as JSON
//
// A version-1 manifest is refused as a mismatch.
//
// Rank checkpoint file framing:
//
//	header  durable header: magic "DKCP", fields version uint16 (1),
//	        round uint32, slot uint32, fphash uint64 (Fingerprint.Hash())
//	body    an embedded KCD database (kcount format, self-checksummed)
const (
	manifestMagic   = "DKMF"
	manifestVersion = 2
	ckptMagic       = "DKCP"
	ckptVersion     = 1
	manifestName    = "MANIFEST"
	maxManifestSize = 1 << 24 // a manifest is a few KB; cap the allocation
)

// ManifestPath returns the manifest location inside a checkpoint dir.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// RankFilePath returns the location of a slot's spectrum slice for a
// round inside a checkpoint dir.
func RankFilePath(dir string, round, slot int) string {
	return filepath.Join(dir, fmt.Sprintf("r%08d-s%04d.ckpt", round, slot))
}

// WriteManifest encodes m into w as a durable header and record.
func WriteManifest(w io.Writer, m *Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := durable.WriteHeader(w, manifestMagic, binary.LittleEndian.AppendUint16(nil, manifestVersion)); err != nil {
		return err
	}
	_, err = w.Write(durable.AppendRecord(nil, payload))
	return err
}

// ReadManifest decodes a manifest, returning an error wrapping
// durable.ErrTruncated, ErrChecksum or ErrMismatch on damage — never a
// wrong manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	if err := durable.ReadHeader(r, manifestMagic, manifestVersion, make([]byte, 2)); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	payload, err := durable.ReadRecord(r, nil, maxManifestSize)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		// The CRC matched, so this is a framing bug, a handcrafted file or
		// a field this version does not know (an older build's "incomplete"
		// bit): refuse it as a mismatch, never drop what it says.
		return nil, fmt.Errorf("manifest payload: %v: %w", err, durable.ErrMismatch)
	}
	if m.Round < 0 || len(m.Survivors) == 0 || len(m.Survivors) > m.Fingerprint.Ranks {
		return nil, fmt.Errorf("manifest round %d / %d survivors of %d ranks: %w",
			m.Round, len(m.Survivors), m.Fingerprint.Ranks, durable.ErrMismatch)
	}
	seen := make(map[int]bool, len(m.Survivors))
	for _, o := range m.Survivors {
		if o < 0 || o >= m.Fingerprint.Ranks || seen[o] {
			return nil, fmt.Errorf("manifest survivor %d of %d ranks: %w", o, m.Fingerprint.Ranks, durable.ErrMismatch)
		}
		seen[o] = true
	}
	for _, o := range m.Dead {
		if o < 0 || o >= m.Fingerprint.Ranks || seen[o] {
			return nil, fmt.Errorf("manifest dead rank %d: %w", o, durable.ErrMismatch)
		}
		seen[o] = true
	}
	return &m, nil
}

// LoadManifest reads the manifest of a checkpoint directory, mapping an
// absent file onto ErrNoCheckpoint. An empty dir names no checkpoint: it
// is ErrNoCheckpoint too, never the working directory's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	if dir == "" {
		return nil, fmt.Errorf("no checkpoint directory: %w", ErrNoCheckpoint)
	}
	f, err := os.Open(ManifestPath(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%s: %w", dir, ErrNoCheckpoint)
		}
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// SaveManifest atomically writes the manifest into dir.
func SaveManifest(dir string, m *Manifest) error {
	return save(ManifestPath(dir), func(w io.Writer) error { return WriteManifest(w, m) })
}

// WriteRankFile encodes one slot's spectrum slice for a round.
func WriteRankFile(w io.Writer, round, slot int, fphash uint64, db *kcount.Database) error {
	fields := binary.LittleEndian.AppendUint16(nil, ckptVersion)
	fields = binary.LittleEndian.AppendUint32(fields, uint32(round))
	fields = binary.LittleEndian.AppendUint32(fields, uint32(slot))
	fields = binary.LittleEndian.AppendUint64(fields, fphash)
	if err := durable.WriteHeader(w, ckptMagic, fields); err != nil {
		return err
	}
	return db.Write(w)
}

// ReadRankFile decodes a slot spectrum slice, verifying the header CRC
// and the embedded database's own checksum.
func ReadRankFile(r io.Reader) (round, slot int, fphash uint64, db *kcount.Database, err error) {
	var b [18]byte
	if err := durable.ReadHeader(r, ckptMagic, ckptVersion, b[:]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	db, err = kcount.ReadDatabase(r)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("checkpoint body: %w", err)
	}
	round = int(binary.LittleEndian.Uint32(b[2:6]))
	slot = int(binary.LittleEndian.Uint32(b[6:10]))
	return round, slot, binary.LittleEndian.Uint64(b[10:18]), db, nil
}

// SaveRankFile atomically writes one slot's slice into dir.
func SaveRankFile(dir string, round, slot int, fphash uint64, db *kcount.Database) error {
	return save(RankFilePath(dir, round, slot), func(w io.Writer) error {
		return WriteRankFile(w, round, slot, fphash, db)
	})
}

// save creates path's directory and writes path through durable.WriteFile,
// so readers never observe a partially written checkpoint and a killed
// writer leaves the previous file intact, plus a ".tmp" RemoveStale deletes.
func save(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return durable.WriteFile(path, write)
}

// LoadRankFile reads a slot slice and validates it against the expected
// coordinates, so a misnamed or foreign file can never seed a resume.
func LoadRankFile(path string, round, slot int, fphash uint64) (*kcount.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, s, h, db, err := ReadRankFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r != round || s != slot || h != fphash {
		return nil, fmt.Errorf("%s: holds round %d slot %d run %016x, want round %d slot %d run %016x: %w",
			path, r, s, h, round, slot, fphash, durable.ErrMismatch)
	}
	return db, nil
}

// RemoveStale deletes rank files of rounds other than keepRound (and
// leftover temp files), called by slot 0 after the manifest for
// keepRound landed. Failures are ignored — stale files are garbage, not
// state; the manifest alone decides what a resume reads.
func RemoveStale(dir string, keepRound int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := fmt.Sprintf("r%08d-", keepRound)
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasSuffix(name, ".ckpt") && !strings.HasPrefix(name, keep):
		default:
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// Successor returns the live owner of original rank r under the dead
// set: r itself while alive, else the next live rank cyclically. This is
// the deterministic ownership remap of the restart after a rank death,
// applied on top of kernels.DestOf — keys keep their original destination
// and dead destinations forward to their successor, so checkpointed
// slices stay valid across restarts. The function composes: for dead
// sets D ⊆ D', Successor(Successor(r, D), D') == Successor(r, D'), which
// is what lets a checkpoint written after one death be reloaded after
// another.
// Returns -1 when every rank is dead.
func Successor(r int, dead []bool) int {
	for i := 0; i < len(dead); i++ {
		o := (r + i) % len(dead)
		if !dead[o] {
			return o
		}
	}
	return -1
}
