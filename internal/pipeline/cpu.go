package pipeline

import (
	"math"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/minimizer"
)

// The scalar kernels cpuEngine plugs in per mode: the same four phases the
// GPU kernels implement, metering abstract work as they go. Both modes'
// parse/count pairs share one signature, so the k-mer pair carries a
// destination map it never reads (k-mers route by hash) and a nil error.

// cpuParseKmers is the scalar PARSEKMER of Alg. 1: a rolling sliding-window
// parse, one hash per k-mer, append to the destination's outgoing vector
// behind the word frame header's room. prev's rows are truncated and reused
// when provided; a fresh row is sized by kmerRowCap.
func cpuParseKmers(cfg Config, _ []uint16, nProc int, data []byte, prev [][]uint64) ([][]uint64, kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	const h = kernels.WordFrameHeader
	out := grow(prev, nProc)
	for i, row := range out {
		if cap(row) < h {
			row = make([]uint64, h, h+kmerRowCap(len(data), nProc))
		}
		out[i] = row[:h]
	}
	k, enc, mask := cfg.K, cfg.Enc, uint64(dna.KmerMask(cfg.K))
	var kw uint64
	valid := 0
	m.AddBytes(len(data)) // one streaming read of the partition
	for _, ch := range data {
		code, ok := enc.Encode(ch)
		m.AddOps(kernels.OpsEncodeBase)
		if !ok {
			valid = 0
			continue
		}
		kw = (kw<<2 | uint64(code)) & mask
		m.AddOps(kernels.OpsKmerRoll)
		valid++
		if valid < k {
			continue
		}
		key := kw
		if cfg.Canonical {
			key = uint64(dna.Kmer(key).Canonical(enc, k))
			m.AddOps(k * kernels.OpsKmerRoll)
		}
		m.AddOps(kernels.OpsHash + kernels.OpsDestSelect + kernels.OpsEmit)
		m.AddItems(1)
		dest := kernels.DestOf(key, nProc)
		out[dest] = append(out[dest], key)
		m.AddBytes(8)
	}
	return out, m, nil
}

// kmerRowCap is the k-mers a fresh send row is sized for when bases are
// parsed for nProc destinations. The mean, a base each, is an upper bound
// already (a read of L bases holds L−k+1 k-mers), and the hash routes them
// uniformly, so a row's share scatters around it like a binomial's: four
// standard deviations stand in for the eighth of slack that cost 7 MB a run
// wherever they are the smaller. A world has nProc² rows, so the slack is
// never a constant and never more than that eighth, which short rows keep.
// append absorbs any overshoot.
func kmerRowCap(bases, nProc int) int {
	mean := bases / nProc
	return mean + min(mean/8, 4*int(math.Sqrt(float64(mean))))
}

// cpuBuildSupermers is the scalar BUILDSUPERMER of Alg. 2, windowed exactly
// like the GPU kernel so both engines ship identical supermer sets, each
// destination's images appended behind the byte frame header's room. prev's
// rows are truncated and reused when provided.
func cpuBuildSupermers(cfg Config, destMap []uint16, nProc int, data []byte, prev [][]byte) ([][]byte, kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	out := headRows(prev, nProc, kernels.ByteFrameHeader)
	mc := cfg.minimizerConfig()
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	m.AddBytes(len(data))
	// Per-base rolling cost and per-k-mer minimizer cost.
	nBases := 0
	for _, ch := range data {
		if cfg.Enc.Valid(ch) {
			nBases++
		}
	}
	m.AddOps(len(data) * kernels.OpsEncodeBase)
	m.AddOps(nBases * kernels.OpsKmerRoll)
	err := minimizer.BuildWindowed(cfg.Enc, data, mc, func(s minimizer.Supermer) {
		m.AddItems(s.NKmers)
		m.AddOps(s.NKmers * (mc.K - mc.M + 1) * kernels.OpsMinimizerCand)
		m.AddOps(s.Len(mc.K) * kernels.OpsPackBase)
		var dest int
		if destMap != nil {
			m.AddOps(kernels.OpsEmit)
			m.AddBytes(2)
			dest = int(destMap[s.Min])
		} else {
			m.AddOps(kernels.OpsHash + kernels.OpsDestSelect + kernels.OpsEmit)
			dest = kernels.DestOf(uint64(s.Min), nProc)
		}
		out[dest] = wire.Encode(out[dest], &s)
		m.AddBytes(wire.Stride())
	})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}

// cpuCountKmers is the scalar COUNTKMER of Alg. 1 over an open-addressing
// table (the same structure the GPU uses, without atomics), consuming the
// received per-source parts in place.
func cpuCountKmers(cfg Config, table *kcount.Table, parts [][]uint64) (work, error) {
	kmers := 0
	for _, part := range parts {
		kmers += len(part)
	}
	return countProvisioned(table, kmers, func(sel keySlice, m *kernels.WorkMeter) error {
		for _, part := range parts {
			for _, key := range part {
				if sel.has(key) {
					countOne(table, key, m)
				}
			}
		}
		return nil
	})
}

// countProvisioned is the driver both CPU count kernels insert an arrival
// through. pass walks the arrival once and puts the k-mers its keySlice has
// through countOne. An arrival of at most kmers k-mers that fits the room
// under the table's growth ceiling is one pass. Any other is its own sample:
// a pass over the sample slice, whose new keys — new to the table, whatever
// it held and however often they repeat — stand for fifteen times as many to
// come; one Reserve for those; then a pass over the rest. The table reaches
// its size in one rehash of the sample's keys, not up a ladder of doublings
// that re-inserts as many keys as it ends with and abandons a table at every
// step. The estimate carries no margin: one that falls short of a doubling
// the keys do need is made up by Add's own, the ladder's last step, while one
// padded past a doubling they do not need would leave the rank a table twice
// the size for good. Every k-mer goes through countOne exactly once, so the
// metered work does not depend on how the arrival was cut.
func countProvisioned(table *kcount.Table, kmers int, pass func(keySlice, *kernels.WorkMeter) error) (w work, err error) {
	if kmers <= table.Reserve(0) {
		return w, pass(allKeys, &w.meter)
	}
	held := table.Len()
	if err := pass(sampleKeys, &w.meter); err != nil {
		return w, err
	}
	more := (table.Len() - held) * sliceOdds
	w.reserved = table.Len() + more
	began := time.Now()
	table.Reserve(more)
	w.grow = time.Since(began)
	return w, pass(otherKeys, &w.meter)
}

// countOne inserts one received k-mer and meters its hash, probes and
// increment.
func countOne(table *kcount.Table, key uint64, m *kernels.WorkMeter) {
	m.AddItems(1)
	before := table.Probes
	table.Inc(key)
	probes := int(table.Probes - before)
	m.AddOps(kernels.OpsHash + probes*kernels.OpsProbe + kernels.OpsEmit)
	m.AddBytes(8 + probes*8 + 4)
}

// cpuCountSupermers extracts k-mers from received supermers and counts them
// (Alg. 2 COUNTKMER), consuming the received per-source parts in place. The
// received bytes are exchanged data: a decode failure surfaces as an error,
// never a panic.
func cpuCountSupermers(cfg Config, table *kcount.Table, parts [][]byte) (work, error) {
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	stride, mask := wire.Stride(), uint64(dna.KmerMask(cfg.K))
	images := 0
	for _, recv := range parts {
		n, err := wire.Count(recv)
		if err != nil {
			return work{}, err
		}
		images += n
	}
	// A supermer holds at most Window k-mers.
	return countProvisioned(table, images*cfg.Window, func(sel keySlice, m *kernels.WorkMeter) error {
		for _, recv := range parts {
			for ; len(recv) > 0; recv = recv[stride:] {
				seq, nk, err := wire.Decode(recv)
				if err != nil {
					return err
				}
				// The second pass decodes the images again; their bytes and
				// rolls, one a base, were metered by the first.
				if sel != otherKeys {
					m.AddBytes(stride)
					m.AddOps((cfg.K - 1 + nk) * kernels.OpsKmerRoll)
				}
				// Base j is two bits of packed byte j/4: read where they lie,
				// this loop runs twice over a sampled arrival.
				packed := seq.Bytes()
				var kw uint64
				for j := 0; j < cfg.K-1+nk; j++ {
					kw = (kw<<2 | uint64(packed[j>>2]>>(2*uint(j&3))&3)) & mask
					if j >= cfg.K-1 && sel.has(kw) {
						countOne(table, kw, m)
					}
				}
			}
		}
		return nil
	})
}
