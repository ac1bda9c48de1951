package exp

import (
	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/stats"
)

// F2/F3: the network saturation probe of Section 3 (Figs. 1–3). Many
// simultaneous point-to-point connections flood a Gigabit Ethernet
// network; Fig. 2 plots the average per-connection bandwidth, Fig. 3 the
// individual transmission times with their straggler tail.

// saturationConnCounts are the probed connection counts; unlike sizes
// and grids they do not shrink with Config.Scale.
var saturationConnCounts = []int{1, 2, 4, 8, 12, 16, 24, 32, 40, 50, 60}

func init() {
	register(Experiment{
		ID:    "F02",
		Title: "Fig. 2: average bandwidth vs simultaneous connections (GigE, 32 MB)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "F02", Title: "Fig. 2"}
			size := scaleSize(32<<20, cfg.Scale)
			nodes := 16
			s := Series{
				Name: "bandwidth",
				Cols: []string{"connections", "avg_bandwidth_MBps", "min_bandwidth_MBps"},
			}
			for _, c := range saturationConnCounts {
				pr := calib.SaturationProbe(cluster.GigabitEthernet(), nodes, c, size, cfg.Seed+int64(c))
				var minBW float64
				if mx := stats.Max(pr.Times); mx > 0 {
					minBW = float64(size) / mx / 1e6
				}
				s.Rows = append(s.Rows, []float64{float64(c), pr.AvgBandwidth() / 1e6, minBW})
			}
			res.Series = append(res.Series, s)
			res.Note("transfer size: %d bytes on %d nodes (paper: 32 MB)", size, nodes)
			res.Note("paper shape: average bandwidth collapses from ~110 MB/s toward ~20 MB/s by 60 connections")
			return res
		},
	})

	register(Experiment{
		ID:    "F03",
		Title: "Fig. 3: per-connection transmission times (GigE, 32 MB)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "F03", Title: "Fig. 3"}
			size := scaleSize(32<<20, cfg.Scale)
			nodes := 16
			indiv := Series{
				Name: "individual",
				Cols: []string{"connections", "time_s"},
			}
			summary := Series{
				Name: "summary",
				Cols: []string{"connections", "mean_s", "p95_s", "max_s", "max_over_mean"},
			}
			for _, c := range saturationConnCounts {
				pr := calib.SaturationProbe(cluster.GigabitEthernet(), nodes, c, size, cfg.Seed+int64(c))
				for _, t := range pr.Times {
					indiv.Rows = append(indiv.Rows, []float64{float64(c), t})
				}
				mean := pr.MeanTime()
				ratio := 0.0
				if mean > 0 {
					ratio = pr.MaxTime() / mean
				}
				summary.Rows = append(summary.Rows, []float64{
					float64(c), mean, stats.Quantile(pr.Times, 0.95), pr.MaxTime(), ratio,
				})
			}
			res.Series = append(res.Series, indiv, summary)
			res.Note("paper shape: most connections near the mean, a few up to ~6x slower (TCP loss recovery)")
			return res
		},
	})
}
