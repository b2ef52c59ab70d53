package dedukt_test

import (
	"fmt"

	"dedukt"
)

// Counting the k-mers of a handful of reads on a simulated 1-node machine.
func ExampleCount() {
	reads := []dedukt.Read{
		{ID: "r1", Seq: []byte("ACGTACGTACGTACGTACGTACGT")},
		{ID: "r2", Seq: []byte("ACGTACGTACGTACGTACGTACGT")},
	}
	opts := dedukt.DefaultOptions(1)
	res, err := dedukt.Count(reads, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("distinct:", res.DistinctKmers)
	fmt.Println("total:", res.TotalKmers)
	// Output:
	// distinct: 4
	// total: 16
}

// Packing and decoding k-mers with the default (paper) encoding.
func ExampleParseKmer() {
	w, _ := dedukt.ParseKmer("GATTACA")
	fmt.Println(dedukt.KmerString(w, 7))
	// Output: GATTACA
}

// The paper's machine configurations.
func ExampleSummitGPU() {
	fmt.Println(dedukt.SummitGPU(64).Ranks(), "GPU ranks")
	fmt.Println(dedukt.SummitCPU(64).Ranks(), "CPU ranks")
	// Output:
	// 384 GPU ranks
	// 2688 CPU ranks
}
