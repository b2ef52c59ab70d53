package kernels

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"dedukt/internal/dna"
	"dedukt/internal/minimizer"
)

// ErrCorruptWire marks exchanged bytes that fail structural or checksum
// validation: a truncated image, an impossible length byte, a frame whose
// CRC does not match its payload, or a missing (dropped) frame. Receivers
// must treat exchanged bytes as untrusted — the fault-tolerant exchange
// (DESIGN.md §7) detects corruption through this error and retries the
// round instead of counting poisoned data.
var ErrCorruptWire = errors.New("kernels: corrupt wire data")

// SupermerWire is the fixed-stride wire format for supermers (§IV-B/C): the
// packed bases occupy PackedBytes(Window+K-1) bytes, followed by one length
// byte holding the number of k-mers inside ("An extra buffer is also
// maintained to store the length of each supermer"). At the paper's
// operating point (k=17, window=15) the bases fit exactly one 64-bit
// machine word, so the stride is 9 bytes.
type SupermerWire struct {
	K      int
	Window int
}

// Stride returns the wire size of one supermer in bytes.
func (w SupermerWire) Stride() int { return dna.PackedBytes(w.Window+w.K-1) + 1 }

// Validate checks the format parameters.
func (w SupermerWire) Validate() error {
	if w.K <= 0 || w.K > dna.MaxK {
		return fmt.Errorf("kernels: wire k=%d outside (0,%d]", w.K, dna.MaxK)
	}
	if w.Window <= 0 || w.Window > 255 {
		return fmt.Errorf("kernels: wire window=%d outside (0,255]", w.Window)
	}
	return nil
}

// Encode appends the wire image of s to dst. The supermer must obey the
// windowed length bound.
func (w SupermerWire) Encode(dst []byte, s *minimizer.Supermer) []byte {
	if s.NKmers < 1 || s.NKmers > w.Window {
		panic(fmt.Sprintf("kernels: supermer with %d kmers exceeds window %d", s.NKmers, w.Window))
	}
	stride := w.Stride()
	start := len(dst)
	dst = append(dst, s.Seq.Bytes()...)
	for len(dst)-start < stride-1 {
		dst = append(dst, 0)
	}
	return append(dst, byte(s.NKmers))
}

// Decode reads one supermer image from buf, returning the packed sequence
// view (no copy) and the k-mer count. The bytes are exchanged data and
// therefore untrusted: a truncated image or an out-of-range length byte
// returns an error wrapping ErrCorruptWire, never a panic.
func (w SupermerWire) Decode(buf []byte) (seq dna.PackedSeq, nk int, err error) {
	stride := w.Stride()
	if len(buf) < stride {
		return dna.PackedSeq{}, 0, fmt.Errorf("%w: truncated supermer image (%d of %d bytes)",
			ErrCorruptWire, len(buf), stride)
	}
	nk = int(buf[stride-1])
	if nk < 1 || nk > w.Window {
		return dna.PackedSeq{}, 0, fmt.Errorf("%w: supermer length byte %d outside [1,%d]",
			ErrCorruptWire, nk, w.Window)
	}
	bases := nk + w.K - 1
	return dna.UnpackFrom(buf[:stride-1], bases), nk, nil
}

// Count returns how many supermers a wire buffer holds, or an error
// wrapping ErrCorruptWire when the buffer is not a whole number of images.
func (w SupermerWire) Count(buf []byte) (int, error) {
	stride := w.Stride()
	if len(buf)%stride != 0 {
		return 0, fmt.Errorf("%w: buffer length %d not a multiple of stride %d",
			ErrCorruptWire, len(buf), stride)
	}
	return len(buf) / stride, nil
}

// VerifyImages validates every supermer image in a wire buffer (structure
// and length bytes) without extracting k-mers, returning the image count
// and the k-mers the images hold — the sum of their length bytes, which is
// what a receiver's table must have room for. Counting kernels call it
// before launch so per-thread decodes cannot fail.
func (w SupermerWire) VerifyImages(buf []byte) (images, kmers int, err error) {
	images, err = w.Count(buf)
	if err != nil {
		return 0, 0, err
	}
	stride := w.Stride()
	for i := 0; i < images; i++ {
		_, nk, err := w.Decode(buf[i*stride:])
		if err != nil {
			return 0, 0, fmt.Errorf("supermer %d: %w", i, err)
		}
		kmers += nk
	}
	return images, kmers, nil
}

// Checksummed frames
//
// The exchange path wraps every per-destination payload in a frame so a
// receiver can detect in-flight corruption or loss before counting (the
// round-level retry of internal/pipeline keys off these failures). Frames
// exist in two flavors matching the two exchanged payload types: byte
// frames for supermer wire buffers and word frames for packed k-mers.
//
// Byte frame layout (header 12 bytes, little-endian):
//
//	[0:4)  magic "dkfr"
//	[4:8)  item count
//	[8:12) CRC32-C of the payload
//
// Word frame layout (header 1 word): low 32 bits item count, high 32 bits
// CRC32-C of the payload words' little-endian bytes.

// Frame header sizes in payload units: a byte frame carries ByteFrameHeader
// bytes ahead of its payload, a word frame WordFrameHeader words. The parse
// kernels leave exactly this much room ahead of each destination's part
// (ParseConfig.Headroom, SupermerConfig.Headroom), so the exchange path seals
// the header where the payload already lies instead of copying both into a
// frame buffer.
const (
	ByteFrameHeader = 12
	WordFrameHeader = 1
)

var frameMagic = [4]byte{'d', 'k', 'f', 'r'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SealFrameBytes writes the checksummed header of frame[ByteFrameHeader:],
// a payload of the given item count, into the ByteFrameHeader bytes of room
// ahead of it, making frame the payload's wire frame without moving a
// payload byte.
func SealFrameBytes(frame []byte, items int) {
	copy(frame, frameMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], uint32(items))
	binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(frame[ByteFrameHeader:], crcTable))
}

// AppendFrameBytes appends the checksummed frame of payload to dst and
// returns the extended slice: a copy of the payload behind header room,
// sealed. It is for a frame that must not share memory with the payload —
// the exchange path's retries frame private copies this way.
func AppendFrameBytes(dst []byte, payload []byte, items int) []byte {
	off := len(dst)
	var room [ByteFrameHeader]byte
	dst = append(append(dst, room[:]...), payload...)
	SealFrameBytes(dst[off:], items)
	return dst
}

// UnframeBytes validates a byte frame and returns its payload (a view, not
// a copy) and item count. A nil frame (a dropped payload), bad magic, or a
// checksum mismatch returns an error wrapping ErrCorruptWire.
func UnframeBytes(frame []byte) (payload []byte, items int, err error) {
	if frame == nil {
		return nil, 0, fmt.Errorf("%w: missing frame (payload dropped)", ErrCorruptWire)
	}
	if len(frame) < ByteFrameHeader {
		return nil, 0, fmt.Errorf("%w: frame truncated to %d bytes", ErrCorruptWire, len(frame))
	}
	if [4]byte(frame[:4]) != frameMagic {
		return nil, 0, fmt.Errorf("%w: bad frame magic %x", ErrCorruptWire, frame[:4])
	}
	items = int(binary.LittleEndian.Uint32(frame[4:]))
	payload = frame[ByteFrameHeader:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(frame[8:]); got != want {
		return nil, 0, fmt.Errorf("%w: frame checksum %08x != %08x", ErrCorruptWire, got, want)
	}
	return payload, items, nil
}

// crcBufs pools the buffers wordsCRC encodes words into. crc32 reaches its
// Castagnoli kernel through a function variable, so a local array would be
// moved to the heap — 4 KiB allocated and cleared per checksum, which the
// many few-word frames of a large world cannot afford.
var crcBufs = sync.Pool{New: func() any { return new([4096]byte) }}

// wordsCRC checksums word payloads over their little-endian byte images,
// encoded a buffer at a time: crc32.Update's per-call set-up is what an
// 8-byte update pays for, and a 4 KiB one amortises it.
func wordsCRC(words []uint64) uint32 {
	buf := crcBufs.Get().(*[4096]byte)
	defer crcBufs.Put(buf)
	var crc uint32
	for len(words) > 0 {
		n := min(len(words), len(buf)/8)
		for i, w := range words[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], w)
		}
		crc = crc32.Update(crc, crcTable, buf[:8*n])
		words = words[n:]
	}
	return crc
}

// SealFrameWords writes the checksummed header of frame[WordFrameHeader:]
// into the word of room ahead of it (see SealFrameBytes).
func SealFrameWords(frame []uint64) {
	words := frame[WordFrameHeader:]
	frame[0] = uint64(wordsCRC(words))<<32 | uint64(uint32(len(words)))
}

// AppendFrameWords appends the framed payload to dst and returns the
// extended slice (see AppendFrameBytes).
func AppendFrameWords(dst []uint64, words []uint64) []uint64 {
	off := len(dst)
	dst = append(append(dst, 0), words...)
	SealFrameWords(dst[off:])
	return dst
}

// UnframeWords validates a word frame and returns its payload (a view, not
// a copy). A nil frame, a count mismatch, or a checksum mismatch returns an
// error wrapping ErrCorruptWire.
func UnframeWords(frame []uint64) ([]uint64, error) {
	if frame == nil {
		return nil, fmt.Errorf("%w: missing frame (payload dropped)", ErrCorruptWire)
	}
	if len(frame) < WordFrameHeader {
		return nil, fmt.Errorf("%w: word frame missing header", ErrCorruptWire)
	}
	words := frame[WordFrameHeader:]
	if count := uint32(frame[0]); count != uint32(len(words)) {
		return nil, fmt.Errorf("%w: word frame count %d != payload %d", ErrCorruptWire, count, len(words))
	}
	if got, want := wordsCRC(words), uint32(frame[0]>>32); got != want {
		return nil, fmt.Errorf("%w: word frame checksum %08x != %08x", ErrCorruptWire, got, want)
	}
	return words, nil
}
