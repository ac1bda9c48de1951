package exp

import (
	"repro/internal/cluster"
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

			pl, err := grid.NewPlanner(topo, cfg.plannerOpts(6, 2))
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

			sizeSweep(cfg, &res, pl, topo, "pred-vs-sim-3lvl", 48<<10, 64<<10, 80<<10)
			return res
		},
	})
}
