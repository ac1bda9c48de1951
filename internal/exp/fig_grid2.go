package exp

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// GR2: the recursive multi-level grid extension. A 3-level campus →
// national → continental topology (2 nations × 2 campuses of Gigabit
// Ethernet over 10 ms campus and 40 ms continental tiers) runs
// All-to-All under three strategies across a message-size sweep
// bracketing the calibration probe; the planner predicts each
// completion time from per-cluster signatures plus one empirical WAN
// term per tier, with per-level contention factors fitted innermost
// tier first. The series reports prediction-vs-simulation error per
// strategy and whether the planner ranked the strategies as simulation
// did — now with the depth-recursive model rather than the two-level
// special case GR1 exercises.
func init() {
	register(Experiment{
		ID:    "GR2",
		Title: "Grid: 3-level hierarchy, prediction vs simulation (2 nations × 2 campuses GigE, 10/40ms WAN)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR2", Title: "Multi-level grid planner: prediction vs simulation"}

			p := cluster.WANTuned(cluster.GigabitEthernet()) // long-fat-pipe tuning
			nodesPer := scaleCount(3, cfg.Scale, 3)
			topo := cluster.ThreeLevel("gr2", p, 2, 2, nodesPer,
				cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))

			pl, err := grid.NewPlanner(topo, grid.Options{
				FitN:    scaleCount(6, cfg.Scale, 6),
				SimMode: cfg.SimMode,
				Trace:   cfg.Trace,
				Reps:    cfg.Reps,
				Seed:    cfg.Seed + 2,
			})
			if err != nil {
				res.Note("planner characterization failed: %v", err)
				return res
			}
			root := pl.Model.Root
			res.Note("continental tier: α=%.1fms β_steady=%.3gs/B γ_wan=[%s]",
				root.Wan.Alpha()*1e3, root.Wan.BetaSteady(), root.Wan.Gamma)
			res.Note("campus tier:      α=%.1fms β_steady=%.3gs/B γ_wan=[%s]",
				root.Children[0].Wan.Alpha()*1e3, root.Children[0].Wan.BetaSteady(),
				root.Children[0].Wan.Gamma)
			res.Note("strategy factors: ω=[%s] κ=[%s]", pl.Model.OverlapGamma, pl.Model.GatherGamma)
			// All campuses share one profile, so one signature line.
			res.Note("cluster signature: %s", pl.Model.Leaves()[0].LAN)

			s := Series{
				Name: "pred-vs-sim-3lvl",
				Cols: []string{"msg_bytes", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}
			agree := 0
			sizes := []int{48 << 10, 64 << 10, 80 << 10}
			for i := range sizes {
				sizes[i] = scaleSize(sizes[i], cfg.Scale/0.25) // sized for the CI default
			}
			sizes = dedupInts(sizes)
			for _, m := range sizes {
				preds := pl.Predict(m)
				predOf := map[grid.Strategy]float64{}
				for _, pr := range preds {
					predOf[pr.Strategy] = pr.T
				}
				simBest, simBestT := grid.Strategy(-1), math.Inf(1)
				for _, strat := range grid.Strategies {
					// Average over two seeds: single runs of lossy TCP
					// over a WAN are RTO-noisy.
					simT := 0.0
					simErr := false
					for _, seed := range []int64{cfg.Seed + 6, cfg.Seed + 18} {
						one, err := grid.Run(topo, coll.Uniform(coll.KindAlltoall, m), strat, cfg.simRun(seed))
						if err != nil {
							res.Note("m=%d %v: simulation failed: %v", m, strat, err)
							simErr = true
							break
						}
						simT += one.T / 2
					}
					if simErr {
						continue
					}
					pred := predOf[strat]
					errPct := 100 * (pred/simT - 1)
					s.Rows = append(s.Rows, []float64{
						float64(m), float64(strat), pred, simT, errPct,
					})
					if simT < simBestT {
						simBest, simBestT = strat, simT
					}
				}
				best := preds[0]
				if best.Strategy == simBest {
					agree++
					res.Note("m=%d: planner and simulation agree on %v", m, best.Strategy)
				} else {
					res.Note("m=%d: planner picked %v, simulation preferred %v", m, best.Strategy, simBest)
				}
			}
			res.Series = append(res.Series, s)
			res.Note("strategies: 0=flat-direct 1=hier-gather 2=hier-direct")
			res.Note("planner/simulation best-strategy agreement: %d/%d sizes", agree, len(sizes))
			return res
		},
	})
}
