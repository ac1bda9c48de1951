package exp

import (
	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/model"
)

// F4: the Section 6 "throughput under contention" approach. βF and βC
// come from the saturation probe; the synthetic β = (1−ρ)βF + ρβC feeds
// the linear model, compared against the measured Direct Exchange and
// the contention-free lower bound on Gigabit Ethernet (paper: 40
// processes).
func init() {
	register(Experiment{
		ID:    "F04",
		Title: "Fig. 4: two-beta performance approximation (GigE, 40 processes)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "F04", Title: "Fig. 4"}
			p := cluster.GigabitEthernet()
			n := scaleCount(40, cfg.Scale, 8)
			// Only the fit's calibration and sweep are drawn; both are
			// set even when the signature fit itself fails.
			lf, _ := fitProfile(p, n, cfg)
			h := lf.Hockney

			probeSize := scaleSize(32<<20, cfg.Scale)
			single := calib.SaturationProbe(p, 16, 1, probeSize, cfg.Seed)
			heavy := calib.SaturationProbe(p, 16, 40, probeSize, cfg.Seed)
			tb := calib.TwoBetaModel(h, single, heavy)
			naive := model.Naive{H: h}

			s := Series{
				Name: "twobeta",
				Cols: []string{"msg_bytes", "measured_s", "two_beta_prediction_s", "lower_bound_s"},
			}
			for _, c := range lf.Samples {
				s.Rows = append(s.Rows, []float64{
					float64(c.M), c.T, tb.Predict(n, c.M), naive.Predict(n, c.M),
				})
			}
			res.Series = append(res.Series, s)
			res.Note("βF=%.4g s/B, βC=%.4g s/B, synthetic β=%.4g s/B (ρ=0.5)",
				tb.BetaF, tb.BetaC, tb.SyntheticBeta())
			res.Note("paper example: βF=8.502e-9, βC=8.498e-8, β=4.6742e-8 s/B")
			res.Note("paper shape: prediction tracks large messages, misses small ones (motivates Section 7)")
			return res
		},
	})
}
