package mpisim

import "testing"

// BenchmarkAlltoallv measures the simulator's exchange cost (simulation
// overhead, not modeled network time).
func BenchmarkAlltoallv(b *testing.B) {
	const p = 24
	payload := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(p, func(c *Comm) error {
			send := make([][]byte, p)
			for j := range send {
				send[j] = payload
			}
			_, err := c.AlltoallvBytes(send)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveTimeEval times pricing one collective of the paper's
// largest world — P = 2 688 (64 Summit nodes × 42 CPU ranks), 64 KiB per
// pair: the fold of its P² pairs and the model's read of the result.
func BenchmarkCollectiveTimeEval(b *testing.B) {
	const p = 2688
	nm := NetModel{RanksPerNode: 42, InjectionGBs: 23, Efficiency: 0.04, LatencyUs: 2}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f := newFold("alltoallv", nm.Topology(), p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				f.add(i, j, 1<<16)
			}
		}
		if nm.CollectiveTime(f.entry()) <= 0 {
			b.Fatal("non-positive")
		}
	}
}
