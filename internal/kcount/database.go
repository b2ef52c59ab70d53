package kcount

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
)

// Sentinel errors for the two corruption classes a reader must distinguish:
// a short file (interrupted download, partial write) versus a full-length
// file whose bytes are wrong. Both are wrapped with positional context;
// test with errors.Is.
var (
	// ErrTruncated marks a KCD stream that ended before the declared
	// structure was complete (short magic, header, entry, or checksum).
	ErrTruncated = errors.New("truncated database")
	// ErrChecksum marks a structurally complete KCD whose trailing CRC32
	// does not match the stream contents.
	ErrChecksum = errors.New("checksum mismatch")
)

// eofAs maps the io.ReadFull end-of-input errors onto sentinel, keeping any
// other I/O error (permission, device) intact.
func eofAs(err, sentinel error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return sentinel
	}
	return err
}

// The KCD (k-mer count database) on-disk format stores a counted table
// sorted by packed key — the library's equivalent of a KMC database
// (the paper's §VI discusses KMC3 and its database tooling):
//
//	magic   "DKCD"            4 bytes
//	version uint16            (1)
//	k       uint16
//	flags   uint32            bit 0: canonical counts
//	n       uint64            entry count
//	entries n × (key uint64, count uint32), ascending by key
//	crc32   uint32            IEEE, over everything after the magic
//
// All integers are little-endian. Keys are 2-bit packed k-mers under the
// encoding the producer used (the format does not fix one; record it out of
// band — the CLI always uses dna.Random).
const (
	kcdMagic   = "DKCD"
	kcdVersion = 1

	// FlagCanonical marks databases of canonical k-mer counts.
	FlagCanonical = 1 << 0
)

// Database is a loaded KCD: entries sorted by key.
type Database struct {
	// K is the k-mer length.
	K int
	// Flags carries FlagCanonical etc.
	Flags uint32
	// Entries are (key, count) pairs in ascending key order.
	Entries []KV
}

// Canonical reports whether the database holds canonical counts.
func (d *Database) Canonical() bool { return d.Flags&FlagCanonical != 0 }

// Len returns the number of distinct k-mers.
func (d *Database) Len() int { return len(d.Entries) }

// Get returns key's count via binary search (0 if absent).
func (d *Database) Get(key uint64) uint32 {
	i := sort.Search(len(d.Entries), func(i int) bool { return d.Entries[i].Key >= key })
	if i < len(d.Entries) && d.Entries[i].Key == key {
		return d.Entries[i].Count
	}
	return 0
}

// ForEach calls fn for every (key, count) pair in ascending key order.
func (d *Database) ForEach(fn func(key uint64, count uint32)) {
	for _, e := range d.Entries {
		fn(e.Key, e.Count)
	}
}

// Table converts the database to an in-memory counter table.
func (d *Database) Table() *Table {
	t := NewTable(len(d.Entries), Linear)
	for _, e := range d.Entries {
		t.Add(e.Key, e.Count)
	}
	return t
}

// Histogram computes the frequency spectrum.
func (d *Database) Histogram() Histogram {
	h := Histogram{Counts: make(map[uint32]uint64)}
	for _, e := range d.Entries {
		h.Counts[e.Count]++
	}
	return h
}

// FromTable builds a sorted Database from a table.
func FromTable(t *Table, k int, flags uint32) *Database {
	return FromTables([]*Table{t}, k, flags)
}

// FromTables builds a sorted Database from tables that hold disjoint key
// sets — a run's per-rank partitions — without merging them into one table
// first. Nil tables are skipped.
func FromTables(ts []*Table, k int, flags uint32) *Database {
	n := 0
	for _, t := range ts {
		if t != nil {
			n += t.Len()
		}
	}
	entries := make([]KV, 0, n)
	var union uint64 // every bit some key has set
	for _, t := range ts {
		if t != nil {
			t.ForEach(func(key uint64, count uint32) {
				entries = append(entries, KV{key, count})
				union |= key
			})
		}
	}
	sortByKey(entries, bits.Len64(union))
	return &Database{K: k, Flags: flags, Entries: entries}
}

// sortByKey sorts a by key where no key has a bit above the low keyBits set.
// It is a most-significant-digit radix sort done in place (an American-flag
// partition on the top eight of those bits, then each bucket on the bits
// below), finished by insertion once a bucket is a few cache lines: no
// second array the size of the spectrum, and none of sort.Slice's reflection.
func sortByKey(a []KV, keyBits int) {
	const digitBits, buckets, small = 8, 1 << 8, 32
	if len(a) <= small {
		for i := 1; i < len(a); i++ {
			e, j := a[i], i
			for ; j > 0 && a[j-1].Key > e.Key; j-- {
				a[j] = a[j-1]
			}
			a[j] = e
		}
		return
	}
	if keyBits == 0 {
		return // equal keys
	}
	shift := max(keyBits-digitBits, 0)
	var head, end [buckets]int // each bucket's next unplaced slot and its end
	for _, e := range a {
		end[e.Key>>shift%buckets]++
	}
	sum := 0
	for b, n := range end {
		head[b], sum = sum, sum+n
		end[b] = sum
	}
	lo := 0
	for b := range head {
		for head[b] < end[b] {
			e := a[head[b]]
			if d := e.Key >> shift % buckets; d != uint64(b) {
				a[head[b]], a[head[d]] = a[head[d]], e
				head[d]++
			} else {
				head[b]++
			}
		}
		sortByKey(a[lo:end[b]], shift)
		lo = end[b]
	}
}

// kcdEntry is an entry's size on disk, and kcdBlock the entries Write and
// readKCD encode and decode at a time: a 4 KiB buffer's worth, so the CRC and
// the buffered stream are each touched once per block, not once per entry.
const (
	kcdEntry = 8 + 4
	kcdBlock = 4096 / kcdEntry
)

// Write serializes the database.
func (d *Database) Write(w io.Writer) error {
	if d.K <= 0 || d.K > 32 {
		return fmt.Errorf("kcount: database k=%d outside (0,32]", d.K)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(kcdMagic); err != nil {
		return err
	}
	var crc uint32
	write := func(p []byte) error {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		_, err := bw.Write(p)
		return err
	}
	hdr := make([]byte, 2+2+4+8)
	binary.LittleEndian.PutUint16(hdr[0:], kcdVersion)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(d.K))
	binary.LittleEndian.PutUint32(hdr[4:], d.Flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(d.Entries)))
	if err := write(hdr); err != nil {
		return err
	}
	var prev uint64
	block := make([]byte, 0, kcdBlock*kcdEntry)
	for i, e := range d.Entries {
		if i > 0 && e.Key <= prev {
			return fmt.Errorf("kcount: entries not strictly ascending at %d", i)
		}
		prev = e.Key
		block = binary.LittleEndian.AppendUint64(block, e.Key)
		block = binary.LittleEndian.AppendUint32(block, e.Count)
		if len(block) == cap(block) {
			if err := write(block); err != nil {
				return err
			}
			block = block[:0]
		}
	}
	if err := write(block); err != nil {
		return err
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(nil, crc)); err != nil {
		return err
	}
	return bw.Flush()
}

// StreamDatabase reads a KCD stream entry by entry without materializing
// the whole database — the constant-memory path for databases that exceed
// RAM. fn is invoked once per entry in ascending key order; a non-nil
// return aborts the scan and is passed through. The header (k, flags) is
// returned; structure and checksum are verified exactly as in ReadDatabase.
func StreamDatabase(r io.Reader, fn func(key uint64, count uint32) error) (k int, flags uint32, err error) {
	d, err := readKCD(r, fn)
	if err != nil {
		return 0, 0, err
	}
	return d.K, d.Flags, nil
}

// ReadDatabase parses a KCD stream, verifying structure and checksum.
func ReadDatabase(r io.Reader) (*Database, error) {
	return readKCD(r, nil)
}

// readKCD is the shared KCD parser: when fn is nil, entries are collected
// into the returned Database; otherwise they stream through fn and
// Entries stays empty.
func readKCD(r io.Reader, fn func(key uint64, count uint32) error) (*Database, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("kcount: reading magic: %w", eofAs(err, ErrTruncated))
	}
	if string(magic) != kcdMagic {
		return nil, fmt.Errorf("kcount: bad magic %q", magic)
	}
	crc := uint32(0)
	readFull := func(buf []byte) error {
		if _, err := io.ReadFull(br, buf); err != nil {
			return eofAs(err, ErrTruncated)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		return nil
	}
	hdr := make([]byte, 2+2+4+8)
	if err := readFull(hdr); err != nil {
		return nil, fmt.Errorf("kcount: reading header: %w", err)
	}
	version := binary.LittleEndian.Uint16(hdr[0:])
	if version != kcdVersion {
		return nil, fmt.Errorf("kcount: unsupported KCD version %d", version)
	}
	k := int(binary.LittleEndian.Uint16(hdr[2:]))
	if k <= 0 || k > 32 {
		return nil, fmt.Errorf("kcount: corrupt k=%d", k)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	n := binary.LittleEndian.Uint64(hdr[8:])
	const maxEntries = 1 << 34 // 16 Gi entries ≈ 192 GiB: reject nonsense sizes
	if n > maxEntries {
		return nil, fmt.Errorf("kcount: implausible entry count %d", n)
	}
	d := &Database{K: k, Flags: flags}
	if fn == nil {
		d.Entries = make([]KV, 0, n)
	}
	block := make([]byte, kcdBlock*kcdEntry)
	var prev uint64
	for i := uint64(0); i < n; {
		// A block that ends early still holds whole entries ahead of the
		// break: they are checked and delivered first, so a short file is
		// reported at the entry it breaks in, behind any bad entry before it.
		block = block[:min(n-i, kcdBlock)*kcdEntry]
		got, readErr := io.ReadFull(br, block)
		crc = crc32.Update(crc, crc32.IEEETable, block[:got])
		for ent := block[:got-got%kcdEntry]; len(ent) > 0; ent, i = ent[kcdEntry:], i+1 {
			key := binary.LittleEndian.Uint64(ent[0:])
			count := binary.LittleEndian.Uint32(ent[8:])
			if i > 0 && key <= prev {
				return nil, fmt.Errorf("kcount: entries not ascending at %d", i)
			}
			if count == 0 {
				return nil, fmt.Errorf("kcount: zero count at entry %d", i)
			}
			prev = key
			if fn != nil {
				if err := fn(key, count); err != nil {
					return nil, err
				}
			} else {
				d.Entries = append(d.Entries, KV{key, count})
			}
		}
		if readErr != nil {
			return nil, fmt.Errorf("kcount: reading entry %d: %w", i, eofAs(readErr, ErrTruncated))
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("kcount: reading checksum: %w", eofAs(err, ErrTruncated))
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return nil, fmt.Errorf("kcount: %w: file %08x, computed %08x", ErrChecksum, got, crc)
	}
	return d, nil
}
