package pipeline

import (
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
// when provided; a fresh row is sized for its share of the k-mers — at most
// one per base, routed uniformly by hash — plus an eighth, and append absorbs
// any overshoot.
func cpuParseKmers(cfg Config, _ []uint16, nProc int, data []byte, prev [][]uint64) ([][]uint64, kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	const h = kernels.WordFrameHeader
	out := grow(prev, nProc)
	for i, row := range out {
		if cap(row) < h {
			row = make([]uint64, h, h+len(data)/nProc*9/8)
		}
		out[i] = row[:h]
	}
	k, enc := cfg.K, cfg.Enc
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
		kw = (kw<<2 | uint64(code)) & kmerMask(k)
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
func cpuCountKmers(cfg Config, table *kcount.Table, bloom *kcount.Bloom, parts [][]uint64) (kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	for _, part := range parts {
		for _, key := range part {
			countOne(table, bloom, key, &m)
		}
	}
	return m, nil
}

// countOne inserts one received k-mer, routing first sightings through the
// Bloom filter when the singleton pre-filter is active (BFCounter scheme:
// a key enters the table on its second sighting, with count 2 so surviving
// counts stay exact).
func countOne(table *kcount.Table, bloom *kcount.Bloom, key uint64, m *kernels.WorkMeter) {
	m.AddItems(1)
	if bloom != nil {
		m.AddOps(bloom.Hashes() * kernels.OpsHash)
		m.AddBytes(bloom.Hashes()) // one bit-word touch per hash
		if !bloom.TestAndSet(key) {
			return // first sighting stays in the filter
		}
	}
	before := table.Probes
	isNew := table.Inc(key)
	if bloom != nil && isNew {
		// The Bloom filter absorbed the first sighting: account for it.
		table.Add(key, 1)
	}
	probes := int(table.Probes - before)
	m.AddOps(kernels.OpsHash + probes*kernels.OpsProbe + kernels.OpsEmit)
	m.AddBytes(8 + probes*8 + 4)
}

// cpuCountSupermers extracts k-mers from received supermers and counts them
// (Alg. 2 COUNTKMER), consuming the received per-source parts in place. The
// received bytes are exchanged data: a decode failure surfaces as an error,
// never a panic.
func cpuCountSupermers(cfg Config, table *kcount.Table, bloom *kcount.Bloom, parts [][]byte) (kernels.WorkMeter, error) {
	var m kernels.WorkMeter
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	stride := wire.Stride()
	for _, recv := range parts {
		n, err := wire.Count(recv)
		if err != nil {
			return m, err
		}
		for i := 0; i < n; i++ {
			seq, nk, err := wire.Decode(recv[i*stride:])
			if err != nil {
				return m, err
			}
			m.AddBytes(stride)
			var kw uint64
			for j := 0; j < cfg.K-1; j++ {
				kw = kw<<2 | uint64(seq.At(j))
				m.AddOps(kernels.OpsKmerRoll)
			}
			for j := 0; j < nk; j++ {
				kw = (kw<<2 | uint64(seq.At(j+cfg.K-1))) & kmerMask(cfg.K)
				m.AddOps(kernels.OpsKmerRoll)
				countOne(table, bloom, kw, &m)
			}
		}
	}
	return m, nil
}

func kmerMask(k int) uint64 {
	if k >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(k))) - 1
}
