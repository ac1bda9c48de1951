// Quickstart: characterize a network's contention signature and predict
// All-to-All performance — the paper's workflow end to end, in ~40
// lines. grid.FitLeaf runs the first three steps:
//
//  1. calibrate the contention-free Hockney parameters (ping-pong),
//  2. measure the All-to-All at one process count n′ across a few
//     message sizes,
//  3. fit the contention signature (γ, δ, M);
//
// then the signature predicts completion times for other process
// counts (step 4).
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
)

func main() {
	// 1–3. Calibrate, sample the All-to-All at n' = 16 and fit.
	const fitN = 16
	lf, err := grid.FitLeaf(cluster.GigabitEthernet(), coll.PostAll, grid.Options{
		FitN:     fitN,
		FitSizes: []int{16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20},
		Reps:     2,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("hockney: %s\n", lf.Hockney)
	for _, s := range lf.Samples {
		fmt.Printf("measured n=%d m=%-8d %.4fs (lower bound %.4fs)\n",
			fitN, s.M, s.T, model.LowerBound(lf.Hockney, fitN, s.M))
	}
	fmt.Printf("\nsignature: %s (fit MAPE %.1f%%)\n\n", lf.Signature, lf.Report.MAPE*100)

	// 4. Predict other configurations without measuring them.
	for _, n := range []int{8, 24, 40, 64} {
		fmt.Printf("predicted alltoall n=%2d, m=1MB: %.4fs\n", n, lf.Signature.Predict(n, 1<<20))
	}
}
