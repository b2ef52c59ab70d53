package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kmer"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
)

var (
	supermerWire = kernels.SupermerWire{K: kmerLen, Window: windowLen}
	minimizerCfg = minimizer.Config{K: kmerLen, M: minLen, Window: windowLen, Ord: minimizer.Value{}}
	supermerCfg  = kernels.SupermerConfig{Enc: &dna.Random, C: minimizerCfg, NumDest: nodes * 6}
)

// measure times fn from outside: it scales the iteration count until one
// pass lasts at least opt.probePass(), then takes the median seconds per
// iteration over opt.probePasses() passes. fn(n) must do n iterations.
func measure(opt options, fn func(iters int) error) (secPerIter float64, err error) {
	target := opt.probePass()
	iters := 1
	var took time.Duration
	for {
		t0 := time.Now()
		if err := fn(iters); err != nil {
			return 0, err
		}
		if took = time.Since(t0); took >= target || iters >= 1<<30 {
			break
		}
		// Aim a fifth past the target: the first, cold pass overestimates
		// the cost of an iteration.
		grow := 1.2 * float64(target) / float64(took+1)
		iters = int(float64(iters)*math.Min(grow, 1000)) + 1
	}
	passes := []float64{took.Seconds() / float64(iters)}
	for len(passes) < opt.probePasses() {
		t0 := time.Now()
		if err := fn(iters); err != nil {
			return 0, err
		}
		passes = append(passes, time.Since(t0).Seconds()/float64(iters))
	}
	return median(passes), nil
}

// probeInput is the rank-0 share of the workload's dataset in the forms the
// layers consume.
type probeInput struct {
	reads   []fastq.Record
	data    []byte   // SeqBuffer image: reads joined by separators
	clean   []byte   // the valid bases only
	keys    []uint64 // the share's k-mer multiset, in read order
	bases   int
	fastqGz string // gzip fixture path, "" when the workload has none
	// spectrum is the whole dataset's serial count: the table the top-k and
	// histogram scans run over is as large as the one a run ends with.
	spectrum map[dna.Kmer]uint32
}

func newProbeInput(reads []fastq.Record, files []string) *probeInput {
	in := &probeInput{reads: fastq.Partition(reads, nodes*6)[0], spectrum: serialSpectrum(reads)}
	var buf dna.SeqBuffer
	for _, r := range in.reads {
		buf.AppendRead(r.Seq)
		in.bases += len(r.Seq)
		for _, b := range r.Seq {
			if dna.Random.Valid(b) {
				in.clean = append(in.clean, b)
			}
		}
		kmer.ForEach(&dna.Random, r.Seq, kmerLen, func(w dna.Kmer, _ int) { in.keys = append(in.keys, uint64(w)) })
	}
	in.data = buf.Data()
	if len(files) == 2 {
		in.fastqGz = files[1]
	}
	return in
}

// probe is one layer micro-measurement: it returns the values of the
// metrics it owns.
type probe struct {
	layer string
	name  string
	run   func(opt options, in *probeInput) (map[string]float64, error)
}

var probes = []probe{
	{layerFastq, "fastq.decode", probeFastqDecode},
	{layerFastq, "fastq.stream_gz", probeFastqStreamGz},
	{layerDNA, "dna.encode", probeEncode},
	{layerMinimizer, "minimizer.of", probeMinimizerOf},
	{layerMinimizer, "minimizer.scanner", probeMinimizerScanner},
	{layerMinimizer, "minimizer.build_windowed", probeBuildWindowed},
	{layerKernels, "kernels.parse_kmers", probeParseKmers},
	{layerKernels, "kernels.build_supermers", probeBuildSupermers},
	{layerKernels, "kernels.count_kmers", probeCountKmers},
	{layerKernels, "kernels.count_supermers", probeCountSupermers},
	{layerFrame, "kernels.frame", probeFrame},
	{layerGPUSim, "gpusim.launch", probeLaunch},
	{layerMPISim, "mpisim.collectives", probeCollectives},
	{layerKCount, "kcount.table", probeTable},
	{layerKCount, "kcount.atomic", probeAtomicTable},
}

// runProbes runs the probes of the layers the workload exercises, each
// under its own span.
func runProbes(spec workloadSpec, opt options, tr *tracer, out *outcome, reads []fastq.Record, files []string) error {
	end := tr.span("probe.input")
	in := newProbeInput(reads, files)
	end()
	for _, p := range probes {
		if !spec.hasLayer(p.layer) {
			continue
		}
		end := tr.span("probe." + p.name)
		vals, err := p.run(opt, in)
		end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		for name, v := range vals {
			out.set(name, v)
		}
	}
	return nil
}

func probeFastqDecode(opt options, in *probeInput) (map[string]float64, error) {
	var text bytes.Buffer
	w := fastq.NewWriter(&text)
	for _, r := range in.reads {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			rd := fastq.NewReader(bytes.NewReader(text.Bytes()))
			for {
				if _, err := rd.Read(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	})
	return map[string]float64{"fastq.decode_mb_per_s": float64(text.Len()) / 1e6 / sec}, err
}

func probeFastqStreamGz(opt options, in *probeInput) (map[string]float64, error) {
	var decoded int // FASTQ text bytes behind the records of one pass
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			src, err := fastq.OpenStream(in.fastqGz)
			if err != nil {
				return err
			}
			decoded = 0
			for {
				rec, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					src.Close()
					return err
				}
				decoded += len(rec.ID) + len(rec.Seq) + len(rec.Qual) + 6
			}
			src.Close()
		}
		return nil
	})
	return map[string]float64{"fastq.stream_gz_mb_per_s": float64(decoded) / 1e6 / sec}, err
}

func probeEncode(opt options, in *probeInput) (map[string]float64, error) {
	dst := make([]dna.Code, 0, len(in.clean))
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := dna.Random.EncodeSeq(dst[:0], in.clean); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"dna.encode_mbases_per_s": float64(len(in.clean)) / 1e6 / sec}, err
}

// sink keeps the compiler from discarding a probe's loop body.
var sink uint64

func probeMinimizerOf(opt options, in *probeInput) (map[string]float64, error) {
	ord := minimizer.Value{}
	sec, err := measure(opt, func(iters int) error {
		var acc uint64
		for i := 0; i < iters; i++ {
			for _, key := range in.keys {
				acc += uint64(minimizer.Of(dna.Kmer(key), kmerLen, minLen, ord))
			}
		}
		sink += acc
		return nil
	})
	return map[string]float64{"minimizer.of_mkmers_per_s": float64(len(in.keys)) / 1e6 / sec}, err
}

func probeMinimizerScanner(opt options, in *probeInput) (map[string]float64, error) {
	ord := minimizer.Value{}
	sec, err := measure(opt, func(iters int) error {
		var acc uint64
		for i := 0; i < iters; i++ {
			for _, r := range in.reads {
				s := minimizer.NewScanner(&dna.Random, r.Seq, kmerLen, minLen, ord)
				for {
					_, min, _, ok := s.Next()
					if !ok {
						break
					}
					acc += uint64(min)
				}
			}
		}
		sink += acc
		return nil
	})
	return map[string]float64{"minimizer.scanner_mkmers_per_s": float64(len(in.keys)) / 1e6 / sec}, err
}

func probeBuildWindowed(opt options, in *probeInput) (map[string]float64, error) {
	sec, err := measure(opt, func(iters int) error {
		var acc uint64
		for i := 0; i < iters; i++ {
			for _, r := range in.reads {
				if err := minimizer.BuildWindowed(&dna.Random, r.Seq, minimizerCfg, func(s minimizer.Supermer) { acc += uint64(s.NKmers) }); err != nil {
					return err
				}
			}
		}
		sink += acc
		return nil
	})
	return map[string]float64{"minimizer.build_windowed_mbases_per_s": float64(in.bases) / 1e6 / sec}, err
}

func probeParseKmers(opt options, in *probeInput) (map[string]float64, error) {
	dev := gpusim.MustDevice(gpusim.V100())
	cfg := kernels.ParseConfig{Enc: &dna.Random, K: kmerLen, NumDest: nodes * 6}
	var scr kernels.ParseScratch
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, _, err := kernels.ParseKmers(dev, cfg, in.data, &scr); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"kernels.parse_kmers_mbases_per_s": float64(in.bases) / 1e6 / sec}, err
}

func probeBuildSupermers(opt options, in *probeInput) (map[string]float64, error) {
	dev := gpusim.MustDevice(gpusim.V100())
	var scr kernels.SupermerScratch
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, _, err := kernels.BuildSupermers(dev, supermerCfg, in.data, &scr); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"kernels.build_supermers_mbases_per_s": float64(in.bases) / 1e6 / sec}, err
}

// freshAtomicTable sizes a table for the share's k-mers the way the
// pipeline's ensureCapacity would (load 0.5, linear probing).
func freshAtomicTable(in *probeInput) *kcount.AtomicTable {
	return kcount.NewAtomicTable(len(in.keys), 0.5, kcount.Linear)
}

func probeCountKmers(opt options, in *probeInput) (map[string]float64, error) {
	dev := gpusim.MustDevice(gpusim.V100())
	parts := [][]uint64{in.keys}
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := kernels.CountKmers(dev, freshAtomicTable(in), parts); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"kernels.count_kmers_mkmers_per_s": float64(len(in.keys)) / 1e6 / sec}, err
}

func probeCountSupermers(opt options, in *probeInput) (map[string]float64, error) {
	dev := gpusim.MustDevice(gpusim.V100())
	var scr kernels.SupermerScratch
	built, _, err := kernels.BuildSupermers(dev, supermerCfg, in.data, &scr)
	if err != nil {
		return nil, err
	}
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := kernels.CountSupermers(dev, freshAtomicTable(in), supermerWire, built); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"kernels.count_supermers_mkmers_per_s": float64(len(in.keys)) / 1e6 / sec}, err
}

// probeFrame frames and unframes the share's k-mers both ways the exchange
// ships payload: as a byte frame and as a word frame.
func probeFrame(opt options, in *probeInput) (map[string]float64, error) {
	payload := make([]byte, 0, 8*len(in.keys))
	for _, key := range in.keys {
		payload = append(payload, byte(key), byte(key>>8), byte(key>>16), byte(key>>24), byte(key>>32), byte(key>>40), byte(key>>48), byte(key>>56))
	}
	var frameB []byte
	var frameW []uint64
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			frameB = kernels.AppendFrameBytes(frameB[:0], payload, len(in.keys))
			if _, _, err := kernels.UnframeBytes(frameB); err != nil {
				return err
			}
			frameW = kernels.AppendFrameWords(frameW[:0], in.keys)
			if _, err := kernels.UnframeWords(frameW); err != nil {
				return err
			}
		}
		return nil
	})
	return map[string]float64{"kernels.frame_mb_per_s": 2 * float64(len(payload)) / 1e6 / sec}, err
}

// probeLaunch prices the simulator's bookkeeping with no kernel body: an
// empty launch, one coalesced load per lane, one strided load per lane.
func probeLaunch(opt options, _ *probeInput) (map[string]float64, error) {
	const threads = 1 << 18
	dev := gpusim.MustDevice(gpusim.V100())
	base := dev.Alloc(128 * threads)
	bodies := []struct {
		metric string
		body   func(tid int, ctx *gpusim.Ctx)
	}{
		{"gpusim.launch_ns_per_thread_empty", func(int, *gpusim.Ctx) {}},
		{"gpusim.account_ns_per_access_coalesced", func(tid int, ctx *gpusim.Ctx) { ctx.Read(base+uint64(tid)*4, 4) }},
		{"gpusim.account_ns_per_access_strided", func(tid int, ctx *gpusim.Ctx) { ctx.Read(base+uint64(tid)*128, 4) }},
	}
	vals := map[string]float64{}
	for _, b := range bodies {
		sec, err := measure(opt, func(iters int) error {
			for i := 0; i < iters; i++ {
				if _, err := dev.Launch(gpusim.LaunchSpec{Name: "probe", Threads: threads}, b.body); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vals[b.metric] = sec * 1e9 / threads
	}
	return vals, nil
}

// probeCollectives measures what the simulated fabric delivers in wall
// terms at P=12, 6 ranks per node: 64 KiB per pair for the three payload
// collectives, 8 B per pair for the per-collective fixed cost.
func probeCollectives(opt options, _ *probeInput) (map[string]float64, error) {
	const p, perNode, big, small = nodes * 6, 6, 64 << 10, 8
	topo := mpisim.Topology{RanksPerNode: perNode}
	rows := func(rank, size int, nodeOnly bool) [][]byte {
		buf := make([]byte, size)
		send := make([][]byte, p)
		for j := range send {
			if !nodeOnly || topo.SameNode(rank, j) {
				send[j] = buf
			}
		}
		return send
	}
	world := func(size int, nodeOnly bool, op func(c *mpisim.Comm, send [][]byte) error) (float64, error) {
		return measure(opt, func(iters int) error {
			_, err := mpisim.RunWithOptions(p, mpisim.Options{RanksPerNode: perNode}, func(c *mpisim.Comm) error {
				send := rows(c.Rank(), size, nodeOnly)
				for i := 0; i < iters; i++ {
					if err := op(c, send); err != nil {
						return err
					}
				}
				return nil
			})
			return err
		})
	}
	blocking := func(c *mpisim.Comm, send [][]byte) error { _, err := c.AlltoallvBytes(send); return err }
	vals := map[string]float64{}
	sec, err := world(big, false, blocking)
	if err != nil {
		return nil, err
	}
	vals["mpisim.alltoallv_mb_per_s"] = p * p * big / 1e6 / sec
	sec, err = world(big, false, func(c *mpisim.Comm, send [][]byte) error { _, err := c.IAlltoallvBytes(send).Wait(); return err })
	if err != nil {
		return nil, err
	}
	vals["mpisim.ialltoallv_mb_per_s"] = p * p * big / 1e6 / sec
	sec, err = world(big, true, func(c *mpisim.Comm, send [][]byte) error { _, err := c.NodeAlltoallvBytes(topo, send); return err })
	if err != nil {
		return nil, err
	}
	vals["mpisim.node_alltoallv_mb_per_s"] = p * perNode * big / 1e6 / sec
	sec, err = world(small, false, blocking)
	if err != nil {
		return nil, err
	}
	vals["mpisim.collective_us_small"] = sec * 1e6
	return vals, nil
}

func probeTable(opt options, in *probeInput) (map[string]float64, error) {
	vals := map[string]float64{}
	var table *kcount.Table
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			table = kcount.NewTable(1024, kcount.Linear)
			for _, key := range in.keys {
				table.Inc(key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["kcount.table_add_mkeys_per_s"] = float64(len(in.keys)) / 1e6 / sec
	sec, err = measure(opt, func(iters int) error {
		var acc uint64
		for i := 0; i < iters; i++ {
			for _, key := range in.keys {
				acc += uint64(table.Get(key))
			}
		}
		sink += acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["kcount.table_get_mkeys_per_s"] = float64(len(in.keys)) / 1e6 / sec
	table = kcount.NewTable(len(in.spectrum), kcount.Linear)
	for key, c := range in.spectrum {
		table.Add(uint64(key), c)
	}
	sec, err = measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			sink += uint64(len(table.TopK(topN)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["kcount.topk_ms"] = sec * 1e3
	sec, err = measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			sink += uint64(len(table.Histogram().Counts))
		}
		return nil
	})
	vals["kcount.histogram_ms"] = sec * 1e3
	return vals, err
}

func probeAtomicTable(opt options, in *probeInput) (map[string]float64, error) {
	vals := map[string]float64{}
	addAll := func(t *kcount.AtomicTable, keys []uint64) error {
		for _, key := range keys {
			if _, _, err := t.Inc(key); err != nil {
				return err
			}
		}
		return nil
	}
	var table *kcount.AtomicTable
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			table = freshAtomicTable(in)
			if err := addAll(table, in.keys); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vals["kcount.atomic_add_mkeys_per_s"] = float64(len(in.keys)) / 1e6 / sec
	vals["kcount.probes_per_add"] = float64(table.Probes()) / float64(len(in.keys))

	workers := runtime.GOMAXPROCS(0)
	sec, err = measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			t := freshAtomicTable(in)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo, hi := w*len(in.keys)/workers, (w+1)*len(in.keys)/workers
					errs[w] = addAll(t, in.keys[lo:hi])
				}(w)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
		}
		return nil
	})
	vals["kcount.atomic_add_par_mkeys_per_s"] = float64(len(in.keys)) / 1e6 / sec
	return vals, err
}
