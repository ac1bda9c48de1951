package exp

import (
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
)

// AB1: All-to-All algorithm choice under contention. The paper models
// the direct exchange; this ablation quantifies how much the round
// structure (Direct), full posting (PostAll), Bruck and pairwise differ
// on each network, i.e. how algorithm choice moves the effective γ.
func init() {
	register(Experiment{
		ID:    "AB1",
		Title: "Ablation: All-to-All algorithm vs contention (all profiles)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "AB1", Title: "Ablation: algorithms"}
			profiles := []cluster.Profile{
				cluster.FastEthernet(), cluster.GigabitEthernet(), cluster.Myrinet(),
			}
			n := scaleCount(16, cfg.Scale, 8)
			m := scaleSize(512<<10, cfg.Scale)
			s := Series{
				Name: "algorithms",
				Cols: []string{"profile_idx", "alg_idx", "mean_s", "ratio_vs_lb"},
			}
			for pi, p := range profiles {
				h := hockneyFor(p, cfg)
				lb := model.LowerBound(h, n, m)
				for ai, alg := range coll.Algorithms {
					algCfg := cfg
					algCfg.Algorithm = alg
					mean := alltoallPoint(p, n, m, algCfg, int64(ai))
					// Label rows with the algorithm that actually ran
					// (Pairwise falls back to Direct off powers of two).
					eff := alg.Effective(n)
					s.Rows = append(s.Rows, []float64{float64(pi), float64(eff), mean, mean / lb})
					if eff != alg {
						res.Note("%s: requested %s, ran %s (n=%d not a power of two)", p.Name, alg, eff, n)
					}
					res.Note("%s/%s: %.4fs (%.2fx LB)", p.Name, eff, mean, mean/lb)
				}
			}
			res.Series = append(res.Series, s)
			res.Note("profiles: 0=fast-ethernet 1=gigabit-ethernet 2=myrinet; algs: 0=direct 1=postall 2=bruck 3=pairwise")
			return res
		},
	})

	// AB2: switch buffer size vs fitted γ and δ on Gigabit Ethernet —
	// the causal link between finite buffering, loss recovery and the
	// contention signature.
	register(Experiment{
		ID:    "AB2",
		Title: "Ablation: switch port buffer vs contention signature (GigE)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "AB2", Title: "Ablation: buffer size"}
			n := scaleCount(24, cfg.Scale, 8)
			s := Series{
				Name: "buffers",
				Cols: []string{"port_buffer_bytes", "gamma", "delta_ms", "timeouts_per_exchange"},
			}
			for _, buf := range []int{32 << 10, 64 << 10, 128 << 10, 512 << 10} {
				p := cluster.GigabitEthernet()
				p.PortBuffer = buf
				lf, err := fitProfile(p, n, cfg)
				if err != nil {
					res.Note("buf=%d: fit failed: %v", buf, err)
					continue
				}
				// Count timeouts on a representative point.
				cl := cluster.Build(p, n, cfg.Seed)
				w := mpi.NewWorld(cl)
				coll.Measure(w, 0, 1, func(r *mpi.Rank) {
					coll.Alltoall(r, scaleSize(512<<10, cfg.Scale), cfg.Algorithm)
				})
				s.Rows = append(s.Rows, []float64{
					float64(buf), lf.Signature.Gamma, lf.Signature.Delta * 1e3,
					float64(cl.Fabric.TotalStats().Timeouts),
				})
				res.Note("buf=%dKB: %s", buf>>10, lf.Signature)
			}
			res.Series = append(res.Series, s)
			res.Note("expected: smaller buffers -> more loss/RTOs -> larger gamma and delta")
			return res
		},
	})

	// AB3: eager/rendezvous threshold vs the small-message step (the
	// Fig. 5 mechanism probe): moving the protocol switch moves the
	// non-linearity.
	register(Experiment{
		ID:    "AB3",
		Title: "Ablation: eager threshold vs small-message non-linearity (GigE)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "AB3", Title: "Ablation: eager threshold"}
			p := cluster.GigabitEthernet()
			s := Series{
				Name: "eager",
				Cols: []string{"eager_threshold", "msg_bytes", "measured_s"},
			}
			for _, thresh := range []int{4 << 10, 16 << 10, 64 << 10} {
				p.EagerThreshold = thresh
				for m := 1 << 10; m <= 32<<10; m *= 2 {
					s.Rows = append(s.Rows, []float64{float64(thresh), float64(m), alltoallPoint(p, 8, m, cfg, 0)})
				}
			}
			res.Series = append(res.Series, s)
			res.Note("expected: a cost step tracks the eager->rendezvous switch point")
			return res
		},
	})
}
