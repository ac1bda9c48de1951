package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/model"
)

// figure is one registered experiment's ID and title.
type figure struct{ id, title string }

// paperNet is one network the paper measured: its profile, the sample
// process count n′, the signature the paper reports, and the three
// figures drawn on it with the process counts their grids sweep.
type paperNet struct {
	profile                    func() cluster.Profile
	fitN                       int
	gamma, deltaMS             float64
	fitFig, surfaceFig, errFig figure
	surfaceN, errN             []int
}

// paperNets are Section 8's three networks. Each row registers one fit
// at n′ (Figs. 6/9/12) and its two extrapolations across n (Figs. 7/10/13
// and 8/11/14); TA sets the fits beside the reported signatures:
//
//	Fast Ethernet:    γ = 1.0195,  δ = 8.23 ms, M = 2 kB  (n' = 24)
//	Gigabit Ethernet: γ = 4.3628,  δ = 4.93 ms, M = 8 kB  (n' = 40)
//	Myrinet:          γ = 2.49754, δ ≈ 0               (n' = 24)
var paperNets = []paperNet{
	{
		profile: cluster.FastEthernet, fitN: 24, gamma: 1.0195, deltaMS: 8.23,
		fitFig:     figure{"F06", "Fig. 6: fitting MPI_Alltoall on Fast Ethernet (24 machines)"},
		surfaceFig: figure{"F07", "Fig. 7: performance prediction surface on Fast Ethernet"},
		errFig:     figure{"F08", "Fig. 8: estimation error on Fast Ethernet vs process count"},
		surfaceN:   []int{8, 16, 24, 32, 40},
		errN:       []int{8, 12, 16, 20, 24, 32, 40},
	},
	{
		profile: cluster.GigabitEthernet, fitN: 40, gamma: 4.3628, deltaMS: 4.93,
		fitFig:     figure{"F09", "Fig. 9: fitting MPI_Alltoall on Gigabit Ethernet (40 machines)"},
		surfaceFig: figure{"F10", "Fig. 10: performance prediction surface on Gigabit Ethernet"},
		errFig:     figure{"F11", "Fig. 11: estimation error on Gigabit Ethernet vs process count"},
		surfaceN:   []int{8, 16, 24, 40, 50},
		errN:       []int{8, 16, 24, 32, 40, 50},
	},
	{
		profile: cluster.Myrinet, fitN: 24, gamma: 2.49754, deltaMS: 0,
		fitFig:     figure{"F12", "Fig. 12: fitting MPI_Alltoall on Myrinet (24 processes)"},
		surfaceFig: figure{"F13", "Fig. 13: performance prediction surface on Myrinet"},
		errFig:     figure{"F14", "Fig. 14: estimation error on Myrinet vs process count"},
		surfaceN:   []int{8, 16, 24, 40, 50},
		errN:       []int{8, 16, 24, 32, 40, 50},
	},
}

func init() {
	for _, net := range paperNets {
		register(fitExperiment(net.fitFig, net.fitFig.title, net.profile, net.fitN,
			fmt.Sprintf("paper reports: γ=%.4f δ=%.2fms at n'=%d (shape comparison only)",
				net.gamma, net.deltaMS, net.fitN)))
		register(surfaceView.experiment(net.surfaceFig, net.surfaceN, net.profile, net.fitN))
		register(errorView.experiment(net.errFig, net.errN, net.profile, net.fitN))
	}
	register(Experiment{
		ID:    "TA",
		Title: "Table A: contention signatures (γ, δ, M) of the three networks",
		Run:   tableA,
	})
}

// fitExperiment implements the Figures 6/9/12 pattern: fit the signature
// at n′ = paperN (scaled) and emit measured vs lower bound vs prediction
// across the sweep, under resTitle and with closing as the last note.
func fitExperiment(f figure, resTitle string, profile func() cluster.Profile, paperN int, closing string) Experiment {
	return Experiment{
		ID:    f.id,
		Title: f.title,
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			n := scaleCount(paperN, cfg.Scale, 8)
			res := Result{ID: f.id, Title: resTitle}
			lf, err := fitProfile(profile(), n, cfg)
			if err != nil {
				res.Note("fit failed: %v", err)
				return res
			}
			s := Series{
				Name: "fit",
				Cols: []string{"msg_bytes", "measured_s", "lower_bound_s", "prediction_s", "ratio_vs_lb"},
			}
			for _, c := range lf.Samples {
				lb := model.LowerBound(lf.Hockney, n, c.M)
				s.Rows = append(s.Rows, []float64{float64(c.M), c.T, lb, lf.Signature.Predict(n, c.M), c.T / lb})
			}
			res.Series = append(res.Series, s)
			res.Note("hockney: %s", lf.Hockney)
			res.Note("signature: %s", lf.Signature)
			res.Note("fit MAPE: %.1f%%", lf.Report.MAPE*100)
			res.Note("%s", closing)
			return res
		},
	}
}

// extrapolation is one view of a fit at n′ measured and predicted over a
// (process count × message size) grid. closing, when non-nil, appends
// the last notes from the rows (nodes, msg_bytes, measured, predicted,
// error %).
type extrapolation struct {
	series, predCol, errCol string
	sizes                   []int // before scaling
	seedShift               func(gi, si int) int64
	noteHockney             bool
	closing                 func(res *Result, rows [][]float64, fitN int)
}

// surfaceView is the Figures 7/10/13 prediction surface, on fewer sizes
// than the fit sweep to keep the grid affordable.
var surfaceView = extrapolation{
	series: "surface", predCol: "prediction_s", errCol: "rel_err_pct",
	sizes:       []int{64 << 10, 256 << 10, 512 << 10, 1 << 20},
	seedShift:   func(gi, si int) int64 { return int64(gi*131 + si*17) },
	noteHockney: true,
}

// errorView is the Figures 8/11/14 estimation error (measured/estimated
// − 1)·100% vs process count at the paper's sizes (128 kB to 1 MB).
var errorView = extrapolation{
	series: "error", predCol: "estimated_s", errCol: "err_pct",
	sizes:     []int{128 << 10, 256 << 10, 512 << 10, 1 << 20},
	seedShift: func(gi, si int) int64 { return int64(1000 + gi*37 + si*7) },
	closing: func(res *Result, rows [][]float64, fitN int) {
		sum, cnt := 0.0, 0
		for _, row := range rows {
			if row[0] >= float64(fitN) { // saturated region: the model's domain
				sum += math.Abs(row[4])
				cnt++
			}
		}
		if cnt > 0 {
			res.Note("mean |error| in the saturated region (n >= n'): %.1f%%", sum/float64(cnt))
		}
		res.Note("paper: error usually below 10%% once the network is saturated")
	},
}

// experiment registers view v on profile as figure f, fitted at n′ = fitN
// and sweeping the process counts gridN (both scaled).
func (v extrapolation) experiment(f figure, gridN []int, profile func() cluster.Profile, fitN int) Experiment {
	return Experiment{
		ID:    f.id,
		Title: f.title,
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			p := profile()
			n := scaleCount(fitN, cfg.Scale, 8)
			res := Result{ID: f.id, Title: f.title}
			lf, err := fitProfile(p, n, cfg)
			if err != nil {
				res.Note("fit failed: %v", err)
				return res
			}
			if v.noteHockney {
				res.Note("hockney: %s", lf.Hockney)
			}
			res.Note("signature fitted at n'=%d: %s", n, lf.Signature)
			s := Series{
				Name: v.series,
				Cols: []string{"nodes", "msg_bytes", "measured_s", v.predCol, v.errCol},
			}
			sizes := scaleSizes(v.sizes, cfg.Scale)
			for gi, gn := range gridN {
				gn = scaleCount(gn, cfg.Scale, 4)
				for si, m := range sizes {
					meas := alltoallPoint(p, gn, m, cfg, v.seedShift(gi, si))
					pred := lf.Signature.Predict(gn, m)
					s.Rows = append(s.Rows, []float64{float64(gn), float64(m), meas, pred, (meas/pred - 1) * 100})
				}
			}
			res.Series = append(res.Series, s)
			if v.closing != nil {
				v.closing(&res, s.Rows, n)
			}
			return res
		},
	}
}

// tableA is TA: each paper network's fitted signature beside the one the
// paper reports, its headline results scattered through Section 8.
func tableA(cfg Config) Result {
	cfg = cfg.withDefaults()
	res := Result{ID: "TA", Title: "Table A"}
	s := Series{
		Name: "signatures",
		Cols: []string{
			"profile_idx", "fit_n", "alpha_us", "beta_ns_per_B",
			"gamma", "delta_ms", "M_bytes", "paper_gamma", "paper_delta_ms",
		},
	}
	legend := make([]string, len(paperNets))
	for i, net := range paperNets {
		p := net.profile()
		legend[i] = fmt.Sprintf("%d=%s", i, p.Name)
		n := scaleCount(net.fitN, cfg.Scale, 8)
		lf, err := fitProfile(p, n, cfg)
		if err != nil {
			res.Note("%s: fit failed: %v", p.Name, err)
			continue
		}
		h, sig := lf.Hockney, lf.Signature
		s.Rows = append(s.Rows, []float64{
			float64(i), float64(n), h.Alpha * 1e6, h.Beta * 1e9,
			sig.Gamma, sig.Delta * 1e3, float64(sig.M), net.gamma, net.deltaMS,
		})
		res.Note("%s: %s | %s | paper: γ=%.4f δ=%.2fms", p.Name, h, sig, net.gamma, net.deltaMS)
	}
	res.Series = append(res.Series, s)
	res.Note("row order: %s", strings.Join(legend, " "))
	return res
}
