package genome

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestSimulateReadsGolden pins the simulator's output bit for bit: the
// benchmark's datasets and the experiments' oracles are defined by these
// reads, so a faster simulator must reproduce every ID, base and quality.
// The lr8 and hs54 rows are the shapes of the benchmark's two datasets.
func TestSimulateReadsGolden(t *testing.T) {
	cases := []struct {
		name     string
		genome   Config
		prof     ReadProfile
		coverage float64
		want     string
	}{
		{
			name:     "lr8",
			genome:   Config{Length: 1_000_000, RepeatFraction: 0.2, RepeatMinLen: 100, RepeatMaxLen: 400, GC: 0.5, Seed: 1},
			prof:     ReadProfile{Model: ShortReads, MeanLen: 800, ErrRate: 0.002, AmbigRate: 0.002, Seed: 1},
			coverage: 8,
			want:     "4a9341b82a730ddac32703800b2728faa0a293c806c37a2599f493a4c882b8e3",
		},
		{
			name:     "hs54",
			genome:   Config{Length: 110_000, RepeatFraction: 0.45, RepeatMinLen: 100, RepeatMaxLen: 400, GC: 0.5, Seed: 1},
			prof:     ReadProfile{Model: ShortReads, MeanLen: 150, ErrRate: 0.002, Seed: 1},
			coverage: 54,
			want:     "494792ad11f8cd7c9b059d6029470903a691fdbdc3c44a2324348040c1cb7f53",
		},
		{
			name:     "long",
			genome:   DefaultConfig(200_000),
			prof:     DefaultLongReads(),
			coverage: 10,
			want:     "75c2433e5c1428ce187d7d43600ae1d692720484492fe89bb3d9a5430c682cd8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Generate(tc.name, tc.genome)
			if err != nil {
				t.Fatal(err)
			}
			reads, err := SimulateReads(g, tc.coverage, tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, r := range reads {
				h.Write([]byte(r.ID))
				h.Write([]byte{'\n'})
				h.Write(r.Seq)
				h.Write([]byte{'\n'})
				h.Write(r.Qual)
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("%d reads hash to %s, want %s", len(reads), got, tc.want)
			}
		})
	}
}
