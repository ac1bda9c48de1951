package exp

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// simRun is the ground-truth run every grid experiment validates
// against: packet-level, cfg's repetitions, the default plan.
func (cfg Config) simRun(seed int64) grid.SimRun {
	return grid.SimRun{Seed: seed, Warmup: cfg.Warmup, Reps: cfg.Reps}
}

// GR1: the multi-cluster grid extension. A two-cluster Gigabit Ethernet
// grid over a 20 ms WAN runs All-to-All under three strategies (flat
// direct exchange, hierarchical gather, hierarchical direct) across a
// message-size sweep; the contention-aware planner predicts each
// completion time from per-cluster signatures plus the characterized
// WAN term. The series reports prediction-vs-simulation error per
// strategy and whether the planner ranked the strategies as simulation
// did — the property that makes it usable for grid-aware collective
// selection (LaPIe/MagPIe style) without running the workload.
func init() {
	register(Experiment{
		ID:    "GR1",
		Title: "Grid: hierarchical All-to-All, prediction vs simulation (2×GigE over 20ms WAN)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR1", Title: "Grid planner: prediction vs simulation"}

			p := cluster.WANTuned(cluster.GigabitEthernet()) // long-fat-pipe tuning
			nodesPer := scaleCount(6, cfg.Scale, 6)
			topo := cluster.Uniform("gr1", p, 2, nodesPer, cluster.DefaultWAN(20*sim.Millisecond)).Tree()

			pl, err := grid.NewPlanner(topo, grid.Options{
				FitN:    scaleCount(8, cfg.Scale, 8),
				SimMode: cfg.SimMode,
				Trace:   cfg.Trace,
				Reps:    cfg.Reps,
				Seed:    cfg.Seed + 2,
			})
			if err != nil {
				res.Note("planner characterization failed: %v", err)
				return res
			}
			res.Note("WAN: α=%.1fms β_steady=%.3gs/B γ_wan=[%s] ω=[%s] κ=[%s]",
				pl.Model.Root.Wan.Alpha()*1e3, pl.Model.Root.Wan.BetaSteady(),
				pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)
			// Both clusters share one profile, so one signature line.
			res.Note("cluster signature: %s", pl.Model.Leaves()[0].LAN)

			s := Series{
				Name: "pred-vs-sim",
				Cols: []string{"msg_bytes", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}
			agree := 0
			sizes := []int{16 << 10, 32 << 10, 48 << 10, 64 << 10}
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
