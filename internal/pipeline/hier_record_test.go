package pipeline

import (
	"errors"
	"reflect"
	"testing"
)

// hierRecord is one [header, frame...] record of a hierarchical-exchange
// container, as appendRecord writes and eachRecord yields it.
type hierRecord[T unit] struct {
	src, dest int
	frame     []T
}

// TestEachRecord pins the container walk for both payload units: records
// appended with appendRecord come back field for field (including an empty
// frame, which must stay distinguishable from a missing one), the header
// occupies 8/sizeof(T) units, and a container cut inside a header or
// declaring more frame units than remain is refused with errHierContainer
// instead of being read past.
func TestEachRecord(t *testing.T) {
	t.Run("words", func(t *testing.T) {
		testEachRecord(t, 1, []hierRecord[uint64]{
			{src: 0, dest: 3, frame: []uint64{0xdeadbeefcafef00d, 2, 3}},
			{src: 65535, dest: 65535, frame: []uint64{}},
			{src: 7, dest: 0, frame: []uint64{^uint64(0)}},
			{src: 2, dest: 5, frame: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		})
	})
	t.Run("bytes", func(t *testing.T) {
		testEachRecord(t, 8, []hierRecord[byte]{
			{src: 0, dest: 3, frame: []byte("dkfr-frame")},
			{src: 65535, dest: 65535, frame: []byte{}},
			{src: 7, dest: 0, frame: []byte{0xff}},
			{src: 2, dest: 5, frame: make([]byte, 300)},
		})
	})
}

func testEachRecord[T unit](t *testing.T, hdrUnits int, recs []hierRecord[T]) {
	t.Helper()
	var blob []T
	wantLen := 0
	for _, r := range recs {
		blob = appendRecord(blob, r.src, r.dest, r.frame)
		wantLen += hdrUnits + len(r.frame)
	}
	if len(blob) != wantLen {
		t.Fatalf("container is %d units, want %d (%d-unit headers)", len(blob), wantLen, hdrUnits)
	}
	walk := func(blob []T) ([]hierRecord[T], error) {
		var got []hierRecord[T]
		err := eachRecord(blob, func(src, dest int, frame []T) {
			if cap(frame) != len(frame) {
				t.Errorf("frame view of record %d not capacity-clamped: len %d cap %d", len(got), len(frame), cap(frame))
			}
			got = append(got, hierRecord[T]{src, dest, append([]T{}, frame...)})
		})
		return got, err
	}

	got, err := walk(blob)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, recs)
	}
	if got, err := walk(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty container: %d records, err %v", len(got), err)
	}

	// Every cut strictly inside the container lands inside some record's
	// header or frame, except the cuts at record boundaries.
	boundary := map[int]bool{0: true}
	for at, i := 0, 0; i < len(recs); i++ {
		at += hdrUnits + len(recs[i].frame)
		boundary[at] = true
	}
	for cut := 0; cut < len(blob); cut++ {
		_, err := walk(blob[:cut])
		if boundary[cut] {
			if err != nil {
				t.Fatalf("cut at record boundary %d: %v", cut, err)
			}
			continue
		}
		if !errors.Is(err, errHierContainer) {
			t.Fatalf("cut at %d (inside a record): err %v, want errHierContainer", cut, err)
		}
	}

	// A header declaring one more frame unit than the container holds.
	long := appendRecord([]T(nil), 1, 2, make([]T, 4))
	long = long[:len(long)-1]
	if _, err := walk(long); !errors.Is(err, errHierContainer) {
		t.Fatalf("over-long length: err %v, want errHierContainer", err)
	}
}
