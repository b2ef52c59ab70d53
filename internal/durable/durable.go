// Package durable owns the on-disk discipline every file this module
// persists shares — KCD databases, checkpoint manifests and rank files,
// spill bins: one error vocabulary, one end-of-input mapping, one
// CRC-framed header, one CRC-framed record and one atomic file.
//
// A header is
//
//	magic   4 bytes
//	fields  version uint16, then the format's own fields
//	crc32   uint32   IEEE, over the fields
//
// and a record is
//
//	length  uint32   payload bytes
//	crc32   uint32   IEEE, over the payload
//	payload length bytes
//
// All integers are little-endian. A reader handed damaged bytes returns an
// error wrapping exactly one of ErrTruncated, ErrChecksum and ErrMismatch;
// any other error is the reader's own I/O failing.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The three ways bytes on disk can be wrong; test with errors.Is.
var (
	// ErrTruncated marks input that ends inside the structure it declares.
	ErrTruncated = errors.New("durable: truncated")
	// ErrChecksum marks a structurally complete file whose CRC32 disagrees
	// with its contents.
	ErrChecksum = errors.New("durable: checksum mismatch")
	// ErrMismatch marks anything else wrong with the bytes: a magic,
	// version or coordinate that is not the one expected, an implausible
	// size, or a value the format forbids.
	ErrMismatch = errors.New("durable: bytes do not match the format")
)

// ReadFull is io.ReadFull with input that ends early reported as
// ErrTruncated; any other read error passes through. n == 0 with
// ErrTruncated means the input ended before p's first byte.
func ReadFull(r io.Reader, p []byte) (int, error) {
	n, err := io.ReadFull(r, p)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = ErrTruncated
	}
	return n, err
}

// WriteHeader writes magic, fields and the CRC of fields. fields begins
// with the format's version as a uint16.
func WriteHeader(w io.Writer, magic string, fields []byte) error {
	buf := make([]byte, 0, len(magic)+len(fields)+4)
	buf = append(append(buf, magic...), fields...)
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(fields)))
	return err
}

// ReadHeader reads a header WriteHeader wrote into fields, whose length
// the format fixes, and checks its magic, then its version — a layout this
// reader does not know is a mismatch, whatever its CRC — then its CRC.
func ReadHeader(r io.Reader, magic string, version uint16, fields []byte) error {
	got := make([]byte, len(magic))
	if _, err := ReadFull(r, got); err != nil {
		return fmt.Errorf("%s magic: %w", magic, err)
	}
	if string(got) != magic {
		return fmt.Errorf("magic %q, want %q: %w", got, magic, ErrMismatch)
	}
	if _, err := ReadFull(r, fields[:2]); err != nil {
		return fmt.Errorf("%s version: %w", magic, err)
	}
	if v := binary.LittleEndian.Uint16(fields); v != version {
		return fmt.Errorf("%s version %d (want %d): %w", magic, v, version, ErrMismatch)
	}
	if _, err := ReadFull(r, fields[2:]); err != nil {
		return fmt.Errorf("%s header: %w", magic, err)
	}
	var tail [4]byte
	if _, err := ReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("%s header crc: %w", magic, err)
	}
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc32.ChecksumIEEE(fields); got != want {
		return fmt.Errorf("%s header crc %08x != %08x: %w", magic, got, want, ErrChecksum)
	}
	return nil
}

// AppendRecord frames payload as one record onto dst.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadRecord reads one record into buf, grown as needed, and returns the
// verified payload. A record declaring more than limit bytes is refused
// before anything is allocated for it.
func ReadRecord(r io.Reader, buf []byte, limit uint32) ([]byte, error) {
	var hdr [8]byte
	if _, err := ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("record header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > limit {
		return nil, fmt.Errorf("record declares %d payload bytes, at most %d: %w", n, limit, ErrMismatch)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("record payload: %w", err)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[4:8]), crc32.ChecksumIEEE(buf); got != want {
		return nil, fmt.Errorf("record crc %08x != %08x: %w", got, want, ErrChecksum)
	}
	return buf, nil
}

// File is a file written under its path plus ".tmp" and renamed onto the
// path by Commit, so a reader of the path sees the previous file or the
// whole new one, never part of one, even when the writing process is
// killed or the machine loses power.
type File struct {
	f    *os.File
	path string
}

// Create starts an atomic write of path, truncating any ".tmp" a killed
// writer left.
func Create(path string) (*File, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path}, nil
}

// Write writes to the temporary file.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Commit syncs the temporary file to disk, closes it and renames it onto
// the path, then syncs the path's directory so the rename is on disk too.
// When the data cannot be synced the temporary file is removed and the
// path left as it was; an error syncing the directory comes after the
// rename, which a reader may then already see.
func (f *File) Commit() error {
	err := f.f.Sync()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.path+".tmp", f.path)
	}
	if err != nil {
		os.Remove(f.path + ".tmp")
		return err
	}
	return syncDir(filepath.Dir(f.path))
}

// syncDir syncs a directory's entries to disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes and removes the temporary file, leaving the path as it was.
func (f *File) Abort() {
	f.f.Close()
	os.Remove(f.path + ".tmp")
}

// WriteFile atomically replaces path with what write writes. When write
// fails, path is left as it was and no temporary file remains.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}
