package exp

import (
	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/sim"
)

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

			pl, err := grid.NewPlanner(topo, cfg.plannerOpts(8, 2))
			if err != nil {
				res.Note("planner characterization failed: %v", err)
				return res
			}
			res.Note("WAN: α=%.1fms β_steady=%.3gs/B γ_wan=[%s] ω=[%s] κ=[%s]",
				pl.Model.Root.Wan.Alpha()*1e3, pl.Model.Root.Wan.BetaSteady(),
				pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)
			// Both clusters share one profile, so one signature line.
			res.Note("cluster signature: %s", pl.Model.Leaves()[0].LAN)

			sizeSweep(cfg, &res, pl, topo, "pred-vs-sim", 16<<10, 32<<10, 48<<10, 64<<10)
			return res
		},
	})
}

// sizeSweep is the validation half GR1 and GR2 share: the uniform
// All-to-All message-size sweep through gridSweep with exact-argmin
// agreement, the strategy legend and the per-size agreement tally.
func sizeSweep(cfg Config, res *Result, pl *grid.Planner, topo cluster.TopoNode, series string, sizes ...int) {
	sw := gridSweep{cfg: cfg, res: res, rows: Series{
		Name: series,
		Cols: []string{"msg_bytes", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
	}}
	sw.run(pl, topo, nil, nil, alltoallCases(cfg, sizes...))
	sw.publish()
	sw.noteAgreement("planner/simulation best-strategy agreement: %d/%d sizes")
}
