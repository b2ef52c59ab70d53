package fastq

// Quality-based read preprocessing: the standard cleanup applied before
// k-mer counting so low-confidence base calls do not flood the spectrum
// with error singletons.

// PhredOffset is the Sanger/Illumina-1.8 quality encoding offset.
const PhredOffset = 33

// Phred returns the numeric quality of one quality character.
func Phred(q byte) int { return int(q) - PhredOffset }

// TrimQuality trims low-quality tails from both ends of a read using
// Richard Mott's algorithm (the BWA/seqtk convention): scanning from each
// end, partial sums of (minQ − phred) are accumulated and the read is cut
// where the running sum is maximal. Records without quality strings (FASTA)
// are returned unchanged. The returned record aliases the input's slices.
func TrimQuality(rec Record, minQ int) Record {
	if rec.Qual == nil || len(rec.Seq) == 0 {
		return rec
	}
	// Scan from the 3' end backwards accumulating s += minQ - q; the best
	// (maximal) prefix of that scan marks the tail to drop, and vice versa.
	end := len(rec.Seq)
	best, sum := 0, 0
	for i := len(rec.Qual) - 1; i >= 0; i-- {
		sum += minQ - Phred(rec.Qual[i])
		if sum < 0 {
			break
		}
		if sum > best {
			best = sum
			end = i
		}
	}
	start := 0
	best, sum = 0, 0
	for i := 0; i < end; i++ {
		sum += minQ - Phred(rec.Qual[i])
		if sum < 0 {
			break
		}
		if sum > best {
			best = sum
			start = i + 1
		}
	}
	if start >= end {
		return Record{ID: rec.ID, Seq: rec.Seq[:0], Qual: rec.Qual[:0]}
	}
	return Record{ID: rec.ID, Seq: rec.Seq[start:end], Qual: rec.Qual[start:end]}
}

// TrimAll quality-trims every record and drops reads shorter than minLen
// afterwards, returning the survivors.
func TrimAll(reads []Record, minQ, minLen int) []Record {
	out := reads[:0:0]
	for _, r := range reads {
		t := TrimQuality(r, minQ)
		if len(t.Seq) >= minLen {
			out = append(out, t)
		}
	}
	return out
}
