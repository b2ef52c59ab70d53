package pipeline

import (
	"encoding/binary"
	"fmt"

	"dedukt/internal/dna"
	"dedukt/internal/durable"
	"dedukt/internal/kernels"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
)

// unit is the element type of an exchanged payload: a 64-bit word in k-mer
// mode (one packed k-mer each, Alg. 1), a byte in supermer mode
// (fixed-stride wire images, Alg. 2). Everything between parse and count —
// the rank body, the exchanger and its strategies, seat routing, spill —
// is written once over it; the compiler stencils both instantiations, so
// nothing on a hot path is boxed.
type unit = mpisim.Unit

// codec is what the shared payload path must know about a mode's rows: how
// many exchanged items a row holds, how it is framed and verified on the
// wire, and how its items are binned and stored by the out-of-core spill.
type codec[T unit] interface {
	// items returns the exchanged units (k-mers or supermers) in a row.
	items(row []T) int
	// header returns the units of frame header a row travels behind. The
	// parse phase leaves that much room ahead of every send row, so a send
	// row and its wire frame are the same memory.
	header() int
	// seal writes the checksummed header of the row frame[header():] into
	// the room ahead of it, in place. A row is sealed once a round, and
	// every attempt ships it as sealed.
	seal(frame []T)
	// unframe verifies a received frame against the announced item count
	// and returns its payload (a view, not a copy); ok is false for a
	// missing, corrupt or miscounted frame.
	unframe(frame []T, want int) (row []T, ok bool)
	// stageBins appends every item of the received rows to the staging
	// buffer of its spill bin (len(stage) bins) in spill-record encoding,
	// tallying items per bin, and returns the item total. A bin is a pure
	// function of the key (or of the supermer's minimizer), so bins
	// partition the rank's key set. The rows are exchanged data: a decode
	// failure is an error, never a panic.
	stageBins(rows [][]T, stage [][]byte, items []int) (uint64, error)
	// unstage decodes one spill record's payload back into a row, checking
	// it against the record's declared item count. scratch may be reused
	// for the result, which is valid only until the next call.
	unstage(payload []byte, items int, scratch []T) (row []T, err error)
}

// kmerCodec is k-mer mode: a row is a vector of packed k-mer words.
type kmerCodec struct{}

func (kmerCodec) items(row []uint64) int { return len(row) }
func (kmerCodec) header() int            { return kernels.WordFrameHeader }
func (kmerCodec) seal(frame []uint64)    { kernels.SealFrameWords(frame) }

func (kmerCodec) unframe(frame []uint64, want int) ([]uint64, bool) {
	row, err := kernels.UnframeWords(frame)
	if err != nil || len(row) != want {
		return nil, false
	}
	return row, true
}

func (kmerCodec) stageBins(rows [][]uint64, stage [][]byte, items []int) (uint64, error) {
	var n uint64
	for _, row := range rows {
		for _, key := range row {
			b := kernels.SpillBinOf(key, len(stage))
			stage[b] = binary.LittleEndian.AppendUint64(stage[b], key)
			items[b]++
			n++
		}
	}
	return n, nil
}

func (kmerCodec) unstage(payload []byte, items int, scratch []uint64) ([]uint64, error) {
	if len(payload) != 8*items {
		return nil, fmt.Errorf("spill record declares %d words for %d payload bytes: %w", items, len(payload), durable.ErrMismatch)
	}
	row := grow(scratch, items)
	for i := range row {
		row[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return row, nil
}

// supermerCodec is supermer mode: a row is a whole number of fixed-stride
// wire images.
type supermerCodec struct {
	wire kernels.SupermerWire
	mc   minimizer.Config
}

func (c supermerCodec) items(row []byte) int { return len(row) / c.wire.Stride() }
func (c supermerCodec) header() int          { return kernels.ByteFrameHeader }

func (c supermerCodec) seal(frame []byte) {
	kernels.SealFrameBytes(frame, c.items(frame[kernels.ByteFrameHeader:]))
}

// unframe goes beyond the frame checksum: each accepted payload's images
// are structurally verified (length bytes in range) before release.
func (c supermerCodec) unframe(frame []byte, want int) ([]byte, bool) {
	row, items, err := kernels.UnframeBytes(frame)
	if err != nil || items != want {
		return nil, false
	}
	n, _, err := c.wire.VerifyImages(row)
	if err != nil || n != want {
		return nil, false
	}
	return row, true
}

// stageBins bins each image by its supermer's minimizer. The wire does not
// carry the minimizer, but every k-mer of a supermer shares it
// (BuildWindowed breaks runs on minimizer change), so it is recomputed from
// the image's first k-mer — the same pure function the sender used,
// keeping each distinct key in exactly one bin.
func (c supermerCodec) stageBins(rows [][]byte, stage [][]byte, items []int) (uint64, error) {
	stride, mc := c.wire.Stride(), c.mc
	var n uint64
	for _, row := range rows {
		images, err := c.wire.Count(row)
		if err != nil {
			return n, err
		}
		for i := 0; i < images; i++ {
			img := row[i*stride : (i+1)*stride]
			seq, _, err := c.wire.Decode(img)
			if err != nil {
				return n, err
			}
			var first uint64
			for j := 0; j < mc.K; j++ {
				first = first<<2 | uint64(seq.At(j))
			}
			min := minimizer.Of(dna.Kmer(first), mc.K, mc.M, mc.Ord)
			b := minimizer.SpillBinOf(min, mc.M, mc.Ord, len(stage))
			stage[b] = append(stage[b], img...)
			items[b]++
			n++
		}
	}
	return n, nil
}

func (c supermerCodec) unstage(payload []byte, items int, _ []byte) ([]byte, error) {
	if stride := c.wire.Stride(); len(payload) != items*stride {
		return nil, fmt.Errorf("spill record declares %d images for %d payload bytes (stride %d): %w", items, len(payload), stride, durable.ErrMismatch)
	}
	if _, _, err := c.wire.VerifyImages(payload); err != nil {
		return nil, fmt.Errorf("spill record: %v: %w", err, durable.ErrMismatch)
	}
	return payload, nil
}
