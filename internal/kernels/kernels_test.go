package kernels

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kmer"
	"dedukt/internal/minimizer"
)

func dev(t *testing.T) *gpusim.Device {
	t.Helper()
	d, err := gpusim.NewDevice(gpusim.V100())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildBuffer(reads []string) []byte {
	var b dna.SeqBuffer
	for _, r := range reads {
		b.AppendRead([]byte(r))
	}
	return b.Data()
}

func randReads(rng *rand.Rand, n, meanLen int, nRate float64) []string {
	reads := make([]string, n)
	for i := range reads {
		l := meanLen/2 + rng.Intn(meanLen)
		seq := make([]byte, l)
		for j := range seq {
			if nRate > 0 && rng.Float64() < nRate {
				seq[j] = 'N'
			} else {
				seq[j] = "ACGT"[rng.Intn(4)]
			}
		}
		reads[i] = string(seq)
	}
	return reads
}

func mustDecode(t *testing.T, wire SupermerWire, buf []byte) (dna.PackedSeq, int) {
	t.Helper()
	seq, nk, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return seq, nk
}

func mustCount(t *testing.T, wire SupermerWire, buf []byte) int {
	t.Helper()
	n, err := wire.Count(buf)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDestOfStable(t *testing.T) {
	// Same key, same rank — the global-hash-table invariant.
	for _, p := range []int{1, 6, 96, 384} {
		if DestOf(12345, p) != DestOf(12345, p) {
			t.Fatal("DestOf not deterministic")
		}
		if d := DestOf(12345, p); d < 0 || d >= p {
			t.Fatalf("DestOf out of range: %d/%d", d, p)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	wire := SupermerWire{K: 17, Window: 15}
	if err := wire.Validate(); err != nil {
		t.Fatal(err)
	}
	if wire.Stride() != 9 { // ⌈31/4⌉ + 1: the paper's word + length byte
		t.Fatalf("stride = %d, want 9", wire.Stride())
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		nk := 1 + rng.Intn(15)
		codes := make([]dna.Code, nk+16)
		for i := range codes {
			codes[i] = dna.Code(rng.Intn(4))
		}
		s := minimizer.Supermer{Seq: dna.PackCodes(codes), NKmers: nk}
		buf := wire.Encode(nil, &s)
		if len(buf) != wire.Stride() {
			t.Fatalf("encoded %d bytes", len(buf))
		}
		seq, gotNk := mustDecode(t, wire, buf)
		if gotNk != nk || seq.Len() != len(codes) {
			t.Fatalf("decode: nk=%d len=%d", gotNk, seq.Len())
		}
		for i := range codes {
			if seq.At(i) != codes[i] {
				t.Fatalf("base %d mismatch", i)
			}
		}
	}
	if mustCount(t, wire, make([]byte, 27)) != 3 {
		t.Fatal("Count wrong")
	}
	if _, err := wire.Count(make([]byte, 10)); err == nil {
		t.Fatal("non-multiple buffer should error")
	}
	if _, _, err := wire.Decode(make([]byte, 3)); err == nil {
		t.Fatal("truncated image should error")
	}
}

func TestWireValidate(t *testing.T) {
	for _, w := range []SupermerWire{{K: 0, Window: 15}, {K: 17, Window: 0}, {K: 17, Window: 256}, {K: 40, Window: 5}} {
		if w.Validate() == nil {
			t.Errorf("%+v should be invalid", w)
		}
	}
}

func TestFrameBytesRoundTrip(t *testing.T) {
	payload := []byte("a supermer wire buffer stand-in")
	frame := AppendFrameBytes(nil, payload, 7)
	got, items, err := UnframeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if items != 7 || string(got) != string(payload) {
		t.Fatalf("round trip: items=%d payload=%q", items, got)
	}
	// Empty payloads still frame (count 0) — a dropped payload is nil and
	// must stay distinguishable from an empty one.
	empty := AppendFrameBytes(nil, nil, 0)
	if _, items, err := UnframeBytes(empty); err != nil || items != 0 {
		t.Fatalf("empty frame: items=%d err=%v", items, err)
	}
	if _, _, err := UnframeBytes(nil); !errors.Is(err, ErrCorruptWire) {
		t.Fatalf("nil frame: err=%v", err)
	}
}

func TestFrameBytesDetectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5, 0x3C}, 20)
	frame := AppendFrameBytes(nil, payload, 5)
	// Flip every single bit in turn: each must be detected.
	for bit := 0; bit < 8*len(frame); bit++ {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := UnframeBytes(bad); err == nil {
			// A flip inside the item-count field alone keeps magic and CRC
			// valid; the exchange layer cross-checks the count against the
			// Alltoall announcement, so only those bits may pass here.
			if bit < 32 || bit >= 64 {
				t.Fatalf("bit flip at %d undetected", bit)
			}
		} else if !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("bit %d: error %v does not wrap ErrCorruptWire", bit, err)
		}
	}
	// Truncation must be detected.
	if _, _, err := UnframeBytes(frame[:8]); !errors.Is(err, ErrCorruptWire) {
		t.Fatalf("truncated frame: err=%v", err)
	}
}

func TestFrameWordsRoundTripAndCorruption(t *testing.T) {
	words := []uint64{0, 1, 0xdeadbeefcafef00d, ^uint64(0)}
	frame := AppendFrameWords(nil, words)
	got, err := UnframeWords(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(words) {
		t.Fatalf("round trip len %d", len(got))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	for bit := 0; bit < 64*len(frame); bit++ {
		bad := append([]uint64(nil), frame...)
		bad[bit/64] ^= 1 << (bit % 64)
		if _, err := UnframeWords(bad); err == nil {
			t.Fatalf("word bit flip at %d undetected", bit)
		}
	}
	if _, err := UnframeWords(nil); !errors.Is(err, ErrCorruptWire) {
		t.Fatalf("nil word frame: err=%v", err)
	}
	if _, err := UnframeWords(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated word frame undetected")
	}
	if empty, err := UnframeWords(AppendFrameWords(nil, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty word frame: %v", err)
	}
}

func TestVerifyImages(t *testing.T) {
	wire := SupermerWire{K: 17, Window: 15}
	s := minimizer.Supermer{Seq: dna.PackCodes(make([]dna.Code, 19)), NKmers: 3}
	buf := wire.Encode(nil, &s)
	buf = wire.Encode(buf, &s)
	if n, kmers, err := wire.VerifyImages(buf); err != nil || n != 2 || kmers != 6 {
		t.Fatalf("VerifyImages = %d images, %d k-mers, %v", n, kmers, err)
	}
	bad := append([]byte(nil), buf...)
	bad[wire.Stride()-1] = 0 // corrupt first length byte
	if _, _, err := wire.VerifyImages(bad); !errors.Is(err, ErrCorruptWire) {
		t.Fatalf("corrupt image: err=%v", err)
	}
	if _, _, err := wire.VerifyImages(buf[:5]); !errors.Is(err, ErrCorruptWire) {
		t.Fatalf("ragged buffer: err=%v", err)
	}
}

func TestParseKmersMatchesScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reads := randReads(rng, 30, 200, 0.02)
	data := buildBuffer(reads)
	cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 7}
	out, st, err := ParseKmers(dev(t), cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flatten and compare multisets with the host scanner.
	var got []uint64
	for d, part := range out {
		for _, w := range part {
			if DestOf(w, cfg.NumDest) != d {
				t.Fatalf("kmer %x binned to %d, hash says %d", w, d, DestOf(w, cfg.NumDest))
			}
			got = append(got, w)
		}
	}
	var want []uint64
	for _, r := range reads {
		for _, w := range kmer.Extract(nil, &dna.Random, []byte(r), cfg.K) {
			want = append(want, uint64(w))
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%d kmers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kmer %d differs", i)
		}
	}
	// The stats aggregate the parse, scan and scatter launches: at least two
	// full passes over the positions.
	if st.Threads < 2*(len(data)-cfg.K+1) {
		t.Fatalf("threads = %d, want ≥ %d", st.Threads, 2*(len(data)-cfg.K+1))
	}
	if st.ComputeOps == 0 || st.MemTransactions == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	// The prefix-sum buffer scheme needs no global atomics — that is the
	// point of the count/scan/scatter pattern.
	if st.AtomicOps != 0 {
		t.Fatalf("parse path issued %d atomics, want 0", st.AtomicOps)
	}
}

func TestParseKmersEmptyAndShort(t *testing.T) {
	cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 3}
	for _, data := range [][]byte{nil, []byte("ACGT\x00")} {
		out, _, err := ParseKmers(dev(t), cfg, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range out {
			if len(part) != 0 {
				t.Fatal("short input should yield no kmers")
			}
		}
	}
}

func TestParseKmersValidation(t *testing.T) {
	d := dev(t)
	if _, _, err := ParseKmers(d, ParseConfig{Enc: nil, K: 17, NumDest: 2}, nil, nil); err == nil {
		t.Error("nil encoding should fail")
	}
	if _, _, err := ParseKmers(d, ParseConfig{Enc: &dna.Random, K: 0, NumDest: 2}, nil, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := ParseKmers(d, ParseConfig{Enc: &dna.Random, K: 17, NumDest: 0}, nil, nil); err == nil {
		t.Error("NumDest=0 should fail")
	}
}

func TestBuildSupermersMatchesBuildWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	reads := randReads(rng, 25, 300, 0.02)
	data := buildBuffer(reads)
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 5}
	out, st, err := BuildSupermers(dev(t), cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := SupermerWire{K: 17, Window: 15}
	type sm struct {
		seq string
		nk  int
	}
	var got []sm
	for d, part := range out {
		for i := 0; i < mustCount(t, wire, part); i++ {
			seq, nk := mustDecode(t, wire, part[i*wire.Stride():])
			s := seq.String(&dna.Random)
			got = append(got, sm{s, nk})
			// Destination must be the minimizer's hash.
			w := seq.Kmer(0, 17)
			min := minimizer.Of(w, 17, 7, mcfg.Ord)
			if DestOf(uint64(min), cfg.NumDest) != d {
				t.Fatalf("supermer %q in partition %d, minimizer says %d", s, d, DestOf(uint64(min), cfg.NumDest))
			}
		}
	}
	var want []sm
	if err := minimizer.BuildWindowed(&dna.Random, data, mcfg, func(s minimizer.Supermer) {
		want = append(want, sm{s.Seq.String(&dna.Random), s.NKmers})
	}); err != nil {
		t.Fatal(err)
	}
	less := func(a, b sm) bool {
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.nk < b.nk
	}
	sort.Slice(got, func(i, j int) bool { return less(got[i], got[j]) })
	sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
	if len(got) != len(want) {
		t.Fatalf("%d supermers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("supermer %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st.DivergenceWaste() < 1.0 {
		t.Fatalf("divergence waste %.2f < 1", st.DivergenceWaste())
	}
}

func TestBuildSupermersValidation(t *testing.T) {
	d := dev(t)
	bad := SupermerConfig{Enc: &dna.Random, C: minimizer.Config{K: 17, M: 99, Window: 15, Ord: minimizer.Value{}}, NumDest: 2}
	if _, _, err := BuildSupermers(d, bad, nil, nil); err == nil {
		t.Error("m>k should fail")
	}
	bad2 := SupermerConfig{Enc: &dna.Random, C: minimizer.Config{K: 17, M: 7, Window: 300, Ord: minimizer.Value{}}, NumDest: 2}
	if _, _, err := BuildSupermers(d, bad2, nil, nil); err == nil {
		t.Error("window>255 should fail")
	}
	bad3 := SupermerConfig{Enc: &dna.Random, C: minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}, NumDest: 1<<16 + 1}
	if _, _, err := BuildSupermers(d, bad3, nil, nil); err == nil {
		t.Error("NumDest>65536 should fail: a descriptor holds the destination in 16 bits")
	}
}

func TestCountKmersMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	kmers := make([]uint64, 30_000)
	for i := range kmers {
		kmers[i] = uint64(rng.Intn(4_000)) // heavy duplication
	}
	table := kcount.NewAtomicTable(5_000, 0.5, kcount.Linear)
	st, err := CountKmers(dev(t), table, [][]uint64{kmers})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint32{}
	for _, w := range kmers {
		oracle[w]++
	}
	if table.Len() != len(oracle) {
		t.Fatalf("table has %d keys, oracle %d", table.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got := table.Get(k); got != want {
			t.Fatalf("count(%d) = %d, want %d", k, got, want)
		}
	}
	if st.AtomicOps == 0 || st.MemTransactions == 0 {
		t.Fatalf("stats missing: %+v", st)
	}
}

func TestCountKmersTableFull(t *testing.T) {
	table := kcount.NewAtomicTable(4, 0.5, kcount.Linear)
	kmers := make([]uint64, 100)
	for i := range kmers {
		kmers[i] = uint64(i * 7919)
	}
	_, err := CountKmers(dev(t), table, [][]uint64{kmers})
	if err == nil || !errors.Is(errors.Unwrap(err), kcount.ErrTableFull) && !errorsContains(err, "table full") {
		t.Fatalf("expected table-full error, got %v", err)
	}
}

func errorsContains(err error, sub string) bool {
	return err != nil && len(err.Error()) > 0 && (sub == "" || containsStr(err.Error(), sub))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCountSupermersMatchesOracle(t *testing.T) {
	// End-to-end single-rank supermer path: build, concatenate "received"
	// buffers, count, compare with the sliding-window oracle.
	rng := rand.New(rand.NewSource(45))
	reads := randReads(rng, 20, 250, 0.01)
	data := buildBuffer(reads)
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 4}
	d := dev(t)
	out, _, err := BuildSupermers(d, cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := SupermerWire{K: 17, Window: 15}
	oracle := kcount.SerialCount(&dna.Random, [][]byte{data}, 17)
	table := kcount.NewAtomicTable(len(oracle), 0.5, kcount.Linear)
	// The per-destination parts feed the counting kernel directly — the
	// zero-copy receive path of the pipeline.
	st, err := CountSupermers(d, table, wire, out)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != len(oracle) {
		t.Fatalf("distinct %d, oracle %d", table.Len(), len(oracle))
	}
	snap := table.Snapshot()
	if diff := snap.EqualToOracle(oracle); diff != "" {
		t.Fatal(diff)
	}
	if st.DivergenceWaste() <= 1.0 {
		t.Log("note: no divergence measured (uniform supermer lengths)")
	}
}

func TestCountSupermersBadBuffer(t *testing.T) {
	wire := SupermerWire{K: 17, Window: 15}
	table := kcount.NewAtomicTable(10, 0.5, kcount.Linear)
	if _, err := CountSupermers(dev(t), table, wire, [][]byte{make([]byte, 10)}); err == nil {
		t.Fatal("non-multiple buffer should fail")
	}
	if _, err := CountSupermers(dev(t), table, SupermerWire{K: 0, Window: 15}, nil); err == nil {
		t.Fatal("bad wire should fail")
	}
}

func TestWorkMeter(t *testing.T) {
	var w WorkMeter
	w.AddOps(10)
	w.AddBytes(100)
	w.Add(WorkMeter{Ops: 5, Bytes: 50})
	if w.Ops != 15 || w.Bytes != 150 {
		t.Fatalf("meter = %+v", w)
	}
}

func TestSupermerCountingCostsMoreThanKmerCounting(t *testing.T) {
	// §IV-B: supermer mode adds ~27% to parse and ~23% to count. Verify the
	// direction: per processed k-mer, the supermer pipeline's parse kernel
	// charges more compute than the k-mer parse kernel.
	rng := rand.New(rand.NewSource(46))
	reads := randReads(rng, 40, 400, 0)
	data := buildBuffer(reads)
	d1 := dev(t)
	_, stK, err := ParseKmers(d1, ParseConfig{Enc: &dna.Random, K: 17, NumDest: 8}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2 := dev(t)
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	_, stS, err := BuildSupermers(d2, SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 8}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both kernels process the same k-mer set; compare total compute.
	if stS.ComputeOps <= stK.ComputeOps/4 {
		t.Fatalf("supermer parse ops %d implausibly below kmer parse ops %d", stS.ComputeOps, stK.ComputeOps)
	}
	t.Logf("parse compute ops: kmer=%d supermer=%d (ratio %.2f)",
		stK.ComputeOps, stS.ComputeOps, float64(stS.ComputeOps)/float64(stK.ComputeOps))
}

func TestParseKmersCanonical(t *testing.T) {
	// Canonical parsing must merge a k-mer and its reverse complement into
	// one key, and keep the destination a function of the canonical form.
	seq := "ACGTTGCAAGGCATCTA"
	rc := make([]byte, len(seq))
	comp := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C'}
	for i := 0; i < len(seq); i++ {
		rc[len(seq)-1-i] = comp[seq[i]]
	}
	data := buildBuffer([]string{seq, string(rc)})
	cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 5, Canonical: true}
	out, _, err := ParseKmers(dev(t), cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for d, part := range out {
		for _, w := range part {
			if DestOf(w, cfg.NumDest) != d {
				t.Fatal("canonical key routed to wrong destination")
			}
			keys = append(keys, w)
		}
	}
	// Both strands produce the single canonical 17-mer of this sequence.
	if len(keys) != 2 {
		t.Fatalf("%d kmers, want 2 (one per strand)", len(keys))
	}
	if keys[0] != keys[1] {
		t.Fatalf("strands canonicalized differently: %x vs %x", keys[0], keys[1])
	}
	want := dna.MustKmer(&dna.Random, seq).Canonical(&dna.Random, 17)
	if keys[0] != uint64(want) {
		t.Fatalf("canonical key %x, want %x", keys[0], uint64(want))
	}
}

func TestBuildSupermersDestMap(t *testing.T) {
	// A DestMap must override hash routing exactly.
	rng := rand.New(rand.NewSource(47))
	reads := randReads(rng, 10, 200, 0)
	data := buildBuffer(reads)
	mcfg := minimizer.Config{K: 17, M: 5, Window: 15, Ord: minimizer.Value{}}
	destMap := make([]uint16, 1<<10)
	for i := range destMap {
		destMap[i] = uint16(i % 3)
	}
	cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 3, DestMap: destMap}
	out, _, err := BuildSupermers(dev(t), cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := SupermerWire{K: 17, Window: 15}
	n := 0
	for d, part := range out {
		for i := 0; i < mustCount(t, wire, part); i++ {
			seq, _ := mustDecode(t, wire, part[i*wire.Stride():])
			min := minimizer.Of(seq.Kmer(0, 17), 17, 5, mcfg.Ord)
			if int(destMap[min]) != d {
				t.Fatalf("supermer with minimizer %x in partition %d, map says %d", min, d, destMap[min])
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no supermers produced")
	}
	// Bad map size must be rejected.
	cfg.DestMap = make([]uint16, 7)
	if _, _, err := BuildSupermers(dev(t), cfg, data, nil); err == nil {
		t.Fatal("wrong-size DestMap accepted")
	}
}

// TestScratchReuse runs the packing kernels twice with one scratch — first
// on a large input, then on a smaller one — and checks the second result is
// unpolluted by the first (stale keys, dests or counts must not leak).
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	big := buildBuffer(randReads(rng, 30, 300, 0.02))
	small := buildBuffer(randReads(rng, 5, 120, 0.05))

	pcfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 6}
	var ps ParseScratch
	if _, _, err := ParseKmers(dev(t), pcfg, big, &ps); err != nil {
		t.Fatal(err)
	}
	reused, _, err := ParseKmers(dev(t), pcfg, small, &ps)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := ParseKmers(dev(t), pcfg, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range fresh {
		if len(reused[d]) != len(fresh[d]) {
			t.Fatalf("dest %d: reused %d kmers, fresh %d", d, len(reused[d]), len(fresh[d]))
		}
		for i := range fresh[d] {
			if reused[d][i] != fresh[d][i] {
				t.Fatalf("dest %d kmer %d differs after scratch reuse", d, i)
			}
		}
	}

	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	scfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 6}
	var ss SupermerScratch
	if _, _, err := BuildSupermers(dev(t), scfg, big, &ss); err != nil {
		t.Fatal(err)
	}
	sReused, _, err := BuildSupermers(dev(t), scfg, small, &ss)
	if err != nil {
		t.Fatal(err)
	}
	sFresh, _, err := BuildSupermers(dev(t), scfg, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range sFresh {
		if !bytes.Equal(sReused[d], sFresh[d]) {
			t.Fatalf("dest %d wire bytes differ after scratch reuse", d)
		}
	}
}

// TestParseKmersDeterministicOrder: the prefix-sum scatter produces a fixed
// output order (warp-major by position) independent of warp scheduling, so
// repeated runs must be byte-identical, not just multiset-equal.
func TestParseKmersDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	data := buildBuffer(randReads(rng, 20, 250, 0.01))
	cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 5}
	first, _, err := ParseKmers(dev(t), cfg, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, _, err := ParseKmers(dev(t), cfg, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := range first {
			if len(again[d]) != len(first[d]) {
				t.Fatalf("trial %d dest %d: %d vs %d kmers", trial, d, len(again[d]), len(first[d]))
			}
			for i := range first[d] {
				if again[d][i] != first[d][i] {
					t.Fatalf("trial %d dest %d: order differs at %d", trial, d, i)
				}
			}
		}
	}
}

func TestAppendFrames(t *testing.T) {
	// AppendFrameWords/Bytes into one arena must unframe identically to the
	// allocating forms.
	wordsA := []uint64{1, 2, 3}
	wordsB := []uint64{9}
	arena := AppendFrameWords(nil, wordsA)
	cut := len(arena)
	arena = AppendFrameWords(arena, wordsB)
	gotA, err := UnframeWords(arena[:cut])
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := UnframeWords(arena[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 3 || gotA[2] != 3 || len(gotB) != 1 || gotB[0] != 9 {
		t.Fatalf("arena frames decode wrong: %v %v", gotA, gotB)
	}

	pay := []byte("payload")
	barena := AppendFrameBytes(nil, pay, 2)
	bcut := len(barena)
	barena = AppendFrameBytes(barena, nil, 0)
	gp, items, err := UnframeBytes(barena[:bcut])
	if err != nil || items != 2 || string(gp) != "payload" {
		t.Fatalf("byte arena frame: %q %d %v", gp, items, err)
	}
	if _, items, err := UnframeBytes(barena[bcut:]); err != nil || items != 0 {
		t.Fatalf("empty byte arena frame: %d %v", items, err)
	}
}

// TestExchangeMessageCounts pins the fabric message arithmetic the
// hierarchical exchange's metric assertions build on.
func TestExchangeMessageCounts(t *testing.T) {
	if got := FlatExchangeMessages(12); got != 144 {
		t.Fatalf("FlatExchangeMessages(12) = %d, want 144", got)
	}
	cases := []struct{ p, rpn, want int }{
		{12, 6, 4}, // 2 full nodes
		{12, 4, 9}, // 3 full nodes
		{7, 3, 9},  // ragged: nodes of 3, 3, 1 still field 3 leaders
		{6, 1, 36}, // one rank per node degenerates to flat
		{6, 0, 36}, // unset topology likewise
		{5, 8, 1},  // single node: only the leader's self-message
	}
	for _, c := range cases {
		if got := HierExchangeMessages(c.p, c.rpn); got != c.want {
			t.Fatalf("HierExchangeMessages(%d, %d) = %d, want %d", c.p, c.rpn, got, c.want)
		}
	}
}
