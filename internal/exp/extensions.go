package exp

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/signature"
)

// The paper's Section 9 names three future directions; each is
// implemented here as an experiment:
//
//	EX1 — "validating and extending our model under different network
//	       architectures like Infiniband"
//	EX2 — "propose an intermediate performance model for half-saturate
//	       networks"
//	EX3 — "extend our models to other collective communication
//	       operations"
func init() {
	register(fitExperiment(
		figure{"EX1", "Extension: contention signature of an InfiniBand-like fabric"},
		"InfiniBand-like", cluster.InfiniBandLike, 24,
		"expected shape: lossless like Myrinet -> pure γ, δ≈0, γ between 1 and Myrinet's"))

	register(Experiment{
		ID:    "EX2",
		Title: "Extension: half-saturated intermediate model (GigE)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "EX2", Title: "Half-saturated model"}
			p := cluster.GigabitEthernet()
			fitN := scaleCount(40, cfg.Scale, 8)
			lf, err := fitProfile(p, fitN, cfg)
			if err != nil {
				res.Note("fit failed: %v", err)
				return res
			}
			sig := lf.Signature
			res.Note("saturated signature at n'=%d: %s", fitN, sig)

			// Measure across process counts at two sizes, fit the ramp.
			m1 := scaleSize(256<<10, cfg.Scale)
			m2 := scaleSize(1<<20, cfg.Scale)
			var pts []signature.NPoint
			for gi, n := range []int{2, 4, 6, 8, 12, 16, 24, 32, 40} {
				n = scaleCount(n, cfg.Scale, 2)
				for si, m := range []int{m1, m2} {
					t := alltoallPoint(p, n, m, cfg, int64(5000+gi*53+si))
					pts = append(pts, signature.NPoint{N: n, M: m, T: t})
				}
			}
			hs, err := signature.FitSaturation(sig, pts)
			if err != nil {
				res.Note("saturation fit failed: %v", err)
				return res
			}
			res.Note("fitted ramp: N0=%d NSat=%d", hs.N0, hs.NSat)

			s := Series{
				Name: "halfsat",
				Cols: []string{"nodes", "msg_bytes", "measured_s", "plain_sig_err_pct", "halfsat_err_pct"},
			}
			var plainSum, hsSum float64
			for _, pt := range pts {
				ePlain := (pt.T/sig.Predict(pt.N, pt.M) - 1) * 100
				eHS := (pt.T/hs.Predict(pt.N, pt.M) - 1) * 100
				s.Rows = append(s.Rows, []float64{float64(pt.N), float64(pt.M), pt.T, ePlain, eHS})
				plainSum += math.Abs(ePlain)
				hsSum += math.Abs(eHS)
			}
			res.Series = append(res.Series, s)
			res.Note("mean |error|: plain signature %.1f%%, half-saturated %.1f%%",
				plainSum/float64(len(pts)), hsSum/float64(len(pts)))
			return res
		},
	})

	register(Experiment{
		ID:    "EX3",
		Title: "Extension: signature methodology on other collectives (GigE)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "EX3", Title: "Other collectives"}
			p := cluster.GigabitEthernet()
			n := scaleCount(24, cfg.Scale, 8)
			h := hockneyFor(p, cfg)

			// Collectives whose linear-model lower bound matches the
			// total-exchange form (n−1 sequential m-byte transfers per
			// rank for allgather; log2 n for allreduce handled via its
			// own round count).
			type cc struct {
				name   string
				rounds func(n int) int
				op     func(r *mpi.Rank, m int)
			}
			cases := []cc{
				{"alltoall", func(n int) int { return n - 1 },
					func(r *mpi.Rank, m int) { coll.Alltoall(r, m, cfg.Algorithm) }},
				{"allgather", func(n int) int { return n - 1 },
					func(r *mpi.Rank, m int) { coll.Allgather(r, m) }},
				{"allreduce", func(n int) int { return log2ceil(n) },
					func(r *mpi.Rank, m int) { coll.Allreduce(r, m) }},
			}
			s := Series{
				Name: "collectives",
				Cols: []string{"coll_idx", "gamma", "delta_ms", "M_bytes", "fit_mape_pct"},
			}
			for ci, c := range cases {
				var samples []signature.Sample
				for i, m := range messageSweep(cfg.Scale) {
					t := measure(p, n, cfg, int64(ci*1000+i), func(r *mpi.Rank) { c.op(r, m) })
					samples = append(samples, signature.Sample{M: m, T: t})
				}
				// Generalize the lower bound via the round count: scale
				// the Hockney parameters so LB(n,m) = rounds·(α+mβ).
				rounds := c.rounds(n)
				hEff := model.Hockney{
					Alpha: h.Alpha * float64(rounds) / float64(n-1),
					Beta:  h.Beta * float64(rounds) / float64(n-1),
				}
				sig, rep, err := signature.Fit(hEff, n, samples, signature.Options{})
				if err != nil {
					res.Note("%s: fit failed: %v", c.name, err)
					continue
				}
				s.Rows = append(s.Rows, []float64{
					float64(ci), sig.Gamma, sig.Delta * 1e3, float64(sig.M), rep.MAPE * 100,
				})
				res.Note("%s: rounds=%d %s (MAPE %.1f%%)", c.name, rounds, sig, rep.MAPE*100)
			}
			res.Series = append(res.Series, s)
			res.Note("collectives: 0=alltoall 1=allgather 2=allreduce")
			res.Note("expected: neighbor-pattern allgather and log-round allreduce show far smaller γ than alltoall")
			return res
		},
	})
}

func log2ceil(n int) int {
	k, p := 0, 1
	for p < n {
		p <<= 1
		k++
	}
	return k
}
