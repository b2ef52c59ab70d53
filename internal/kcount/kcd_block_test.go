package kcount

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"dedukt/internal/durable"
)

// entryWiseWrite is the KCD writer Write replaced: one CRC update and one
// buffered write per 12-byte entry. It defines the format; the block writer
// must produce its bytes.
func entryWiseWrite(d *Database, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(kcdMagic)
	var crc uint32
	write := func(p []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		bw.Write(p)
	}
	hdr := make([]byte, 2+2+4+8)
	binary.LittleEndian.PutUint16(hdr[0:], kcdVersion)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(d.K))
	binary.LittleEndian.PutUint32(hdr[4:], d.Flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(d.Entries)))
	write(hdr)
	ent := make([]byte, 12)
	for _, e := range d.Entries {
		binary.LittleEndian.PutUint64(ent[0:], e.Key)
		binary.LittleEndian.PutUint32(ent[8:], e.Count)
		write(ent)
	}
	bw.Write(binary.LittleEndian.AppendUint32(nil, crc))
	return bw.Flush()
}

// entryWiseRead is the entry loop and checksum of the reader readKCD
// replaced: one io.ReadFull and one CRC update per entry. It defines which
// error a damaged file gets and how many entries fn sees first.
func entryWiseRead(data []byte, fn func(key uint64, count uint32)) error {
	br := bytes.NewReader(data[len(kcdMagic):])
	crc := uint32(0)
	readFull := func(buf []byte) error {
		if _, err := durable.ReadFull(br, buf); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		return nil
	}
	hdr := make([]byte, 2+2+4+8)
	if err := readFull(hdr); err != nil {
		return fmt.Errorf("kcount: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	ent := make([]byte, 12)
	var prev uint64
	for i := uint64(0); i < n; i++ {
		if err := readFull(ent); err != nil {
			return fmt.Errorf("kcount: reading entry %d: %w", i, err)
		}
		key, count := binary.LittleEndian.Uint64(ent[0:]), binary.LittleEndian.Uint32(ent[8:])
		if i > 0 && key <= prev {
			return fmt.Errorf("kcount: entries not ascending at %d: %w", i, durable.ErrMismatch)
		}
		if count == 0 {
			return fmt.Errorf("kcount: zero count at entry %d: %w", i, durable.ErrMismatch)
		}
		prev = key
		fn(key, count)
	}
	var tail [4]byte
	if _, err := durable.ReadFull(br, tail[:]); err != nil {
		return fmt.Errorf("kcount: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return fmt.Errorf("kcount: %w: file %08x, computed %08x", durable.ErrChecksum, got, crc)
	}
	return nil
}

// TestKCDBlocksKeepTheFormat: for entry counts on every side of a block
// boundary, Write's bytes are the entry-wise writer's, and ReadDatabase and
// StreamDatabase read them back.
func TestKCDBlocksKeepTheFormat(t *testing.T) {
	for _, n := range []int{0, 1, kcdBlock - 1, kcdBlock, kcdBlock + 1, 3 * kcdBlock, 3*kcdBlock + 7} {
		d := &Database{K: 21, Flags: FlagCanonical}
		for i := 0; i < n; i++ {
			d.Entries = append(d.Entries, KV{uint64(i)*0x9e3779b97f4a7c15>>20 + uint64(i)<<44, uint32(i%5 + 1)})
		}
		var got, want bytes.Buffer
		if err := d.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := entryWiseWrite(d, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d entries: Write's %d bytes differ from the entry-wise writer's %d", n, got.Len(), want.Len())
		}
		back, err := ReadDatabase(bytes.NewReader(got.Bytes()))
		if err != nil || back.K != d.K || back.Flags != d.Flags || len(back.Entries) != n {
			t.Fatalf("%d entries: read back %+v, %v", n, back, err)
		}
		for i, e := range back.Entries {
			if e != d.Entries[i] {
				t.Fatalf("%d entries: entry %d read back as %+v, want %+v", n, i, e, d.Entries[i])
			}
		}
	}
}

// TestKCDBlocksKeepTheErrors damages a three-block file every way the reader
// tells apart — cut short, a flipped byte in the flags, every block and the
// checksum, a zero count and a descending key, alone and ahead of a cut in
// the same block — and holds the block reader to the entry-wise one: the same
// error text, sentinel and entry number, after the same entries delivered.
func TestKCDBlocksKeepTheErrors(t *testing.T) {
	d := sampleDB(t, 3*kcdBlock/2, 107)
	if d.Len() <= 2*kcdBlock || d.Len() >= 3*kcdBlock {
		t.Fatalf("%d entries, want a third, partial block", d.Len())
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	const entries = 4 + 16 // offset of the first entry
	check := func(name string, data []byte) {
		t.Helper()
		var want, got []KV
		wantErr := entryWiseRead(data, func(key uint64, count uint32) { want = append(want, KV{key, count}) })
		_, _, err := StreamDatabase(bytes.NewReader(data), func(key uint64, count uint32) error {
			got = append(got, KV{key, count})
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: StreamDatabase: %v; the entry-wise reader: %v", name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries delivered before the error, the entry-wise reader delivers %d", name, len(got), len(want))
		}
		if _, err := ReadDatabase(bytes.NewReader(data)); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: ReadDatabase: %v; the entry-wise reader: %v", name, err, wantErr)
		}
	}
	check("undamaged", good)
	for cut := entries; cut < len(good); cut++ {
		// Every byte within two entries of a block boundary or the end, one
		// cut per entry elsewhere.
		off := (cut - entries) % (kcdBlock * kcdEntry)
		if off < 2*kcdEntry || off > (kcdBlock-2)*kcdEntry || cut > len(good)-2*kcdEntry || off%kcdEntry == 5 {
			check(fmt.Sprintf("cut at %d", cut), good[:cut])
		}
	}
	damaged := func(at int, b byte) []byte {
		data := append([]byte(nil), good...)
		data[at] ^= b
		return data
	}
	for _, at := range []int{9, entries + 3, entries + kcdBlock*kcdEntry + 8, len(good) - 20, len(good) - 1} {
		check(fmt.Sprintf("flipped byte %d", at), damaged(at, 0x10))
	}
	// Entry kcdBlock+10 lies in the second block; a cut later in that block
	// must not hide it.
	bad := entries + (kcdBlock+10)*kcdEntry
	zero := append([]byte(nil), good...)
	copy(zero[bad+8:], []byte{0, 0, 0, 0})
	descending := append([]byte(nil), good...)
	copy(descending[bad:], good[bad-kcdEntry:bad])
	for name, data := range map[string][]byte{"zero count": zero, "descending key": descending} {
		check(name, data)
		check(name+" ahead of a cut", data[:bad+5*kcdEntry+3])
	}
}
