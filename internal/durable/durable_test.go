package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFailureKeepsPath: a write that fails leaves the file already
// at the path byte-identical and no temporary file behind; one that succeeds
// replaces it.
func TestWriteFileFailureKeepsPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.kcd")
	old := []byte("the previous output")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("half a new "))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after a failed write the path holds %q (%v), want %q", got, err, old)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a failed write left %s.tmp behind (%v)", path, err)
	}
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write([]byte("new")); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("after a write the path holds %q (%v), want %q", got, err, "new")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the directory after a commit, want 1", len(entries))
	}
}

// TestFraming reads back a header and two records, then damages them every
// way a reader tells apart and pins the sentinel each damage gets.
func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, "TEST", []byte{3, 0, 0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	buf.Write(AppendRecord(AppendRecord(nil, []byte("first")), nil))
	good := buf.Bytes()
	read := func(data []byte) error {
		r := bytes.NewReader(data)
		fields := make([]byte, 4)
		if err := ReadHeader(r, "TEST", 3, fields); err != nil {
			return err
		}
		if fields[2] != 0xaa || fields[3] != 0xbb {
			t.Fatalf("fields read back as %x", fields)
		}
		var p []byte
		for _, want := range []string{"first", ""} {
			var err error
			if p, err = ReadRecord(r, p, 8); err != nil {
				return err
			}
			if string(p) != want {
				t.Fatalf("record read back as %q, want %q", p, want)
			}
		}
		return nil
	}
	if err := read(good); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if err := read(good[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
	for name, c := range map[string]struct {
		at   int
		want error
	}{
		"magic":        {0, ErrMismatch},
		"version":      {4, ErrMismatch},
		"field":        {7, ErrChecksum},
		"header crc":   {9, ErrChecksum},
		"record size":  {12, ErrMismatch},
		"record crc":   {16, ErrChecksum},
		"payload byte": {20, ErrChecksum},
	} {
		data := append([]byte(nil), good...)
		data[c.at] ^= 0x40
		if err := read(data); !errors.Is(err, c.want) {
			t.Errorf("%s damaged: got %v, want %v", name, err, c.want)
		}
	}
}
