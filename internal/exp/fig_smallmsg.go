package exp

import (
	"repro/internal/cluster"
	"repro/internal/model"
)

// F5: the small-message non-linearity of Section 7.1 (Fig. 5): a dense
// sweep of small message sizes across 4–16 nodes on Gigabit Ethernet.
// The paper names three suspects for the non-linear steps — MPI sending
// policy, buffer capacity, process synchronization; in this simulator
// the eager/rendezvous switch and the onset of switch-buffer overflow
// produce the same qualitative steps.
func init() {
	register(Experiment{
		ID:    "F05",
		Title: "Fig. 5: non-linearity of communication cost with small messages (GigE)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "F05", Title: "Fig. 5"}
			p := cluster.GigabitEthernet()
			h := hockneyFor(p, cfg)

			step := 256 * 4                        // paper uses 256-byte intervals; we stride 1 KiB
			maxM := scaleSize(16<<10, cfg.Scale*4) // keep the full small range
			s := Series{
				Name: "smallmsg",
				Cols: []string{"nodes", "msg_bytes", "measured_s", "lower_bound_s", "ratio"},
			}
			for gi, n := range []int{4, 8, 12, 16} {
				for m := step; m <= maxM; m += step {
					meas := alltoallPoint(p, n, m, cfg, int64(gi*211+m))
					lb := model.LowerBound(h, n, m)
					s.Rows = append(s.Rows, []float64{float64(n), float64(m), meas, lb, meas / lb})
				}
			}
			res.Series = append(res.Series, s)
			res.Note("paper shape: cost does not grow linearly with size; visible steps for small messages")
			return res
		},
	})
}
