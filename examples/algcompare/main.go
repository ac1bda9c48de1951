// algcompare races the four All-to-All algorithms on each cluster
// profile and two message-size regimes, illustrating the paper's
// motivating observation: algorithm cost under contention is not what
// contention-free models predict, and the best algorithm depends on the
// network and the message size.
package main

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
)

func main() {
	profiles := []cluster.Profile{
		cluster.FastEthernet(),
		cluster.GigabitEthernet(),
		cluster.Myrinet(),
	}
	const n = 16
	sizes := []int{2 << 10, 512 << 10} // latency-bound vs bandwidth-bound

	for _, p := range profiles {
		h := calib.PingPong(p, mpi.Config{}, 1, calib.PingPongConfig{Reps: 3})
		fmt.Printf("\n=== %s (%s) ===\n", p.Name, h)
		for _, m := range sizes {
			lb := model.LowerBound(h, n, m)
			fmt.Printf("  message %7dB (lower bound %.5fs):\n", m, lb)
			best, bestT := "", 0.0
			for _, alg := range coll.Algorithms {
				cl := cluster.Build(p, n, 7)
				w := mpi.NewWorld(cl)
				meas := coll.Measure(w, 1, 2, func(r *mpi.Rank) {
					coll.Alltoall(r, m, alg)
				})
				eff := alg.Effective(n) // Pairwise falls back to Direct off powers of two
				fmt.Printf("    %-8s %.5fs  (%.2fx lower bound)\n", eff, meas.Mean(), meas.Mean()/lb)
				if best == "" || meas.Mean() < bestT {
					best, bestT = eff.String(), meas.Mean()
				}
			}
			fmt.Printf("    -> best: %s\n", best)
		}
	}
}
