package exp

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// GR3: bandwidth-aware coordinator selection on a heterogeneous grid.
// The topology is the hetero-3lvl shape — 2 nations × 2 campuses of
// Gigabit Ethernet over 10 ms campus and 40 ms continental tiers, with
// every campus's lowest rank degraded to a legacy 100 Mb access port.
// The default hierarchical relay serializes each campus's gather incast
// and aggregated WAN exchange through exactly that port. The planner
// probes per-node uplink headroom during characterization, selects
// coordinators (and a split factor) by predicted cost, and the
// experiment validates the choice two ways: the selected plan's
// simulated All-to-All time against the lowest-rank default, and
// prediction-vs-simulation agreement for the strategy ranking with the
// selection applied.
func init() {
	register(Experiment{
		ID:    "GR3",
		Title: "Grid: bandwidth-aware coordinator selection (hetero 2×2 GigE, degraded rank-0 NICs, 10/40ms WAN)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR3", Title: "Coordinator selection: degraded-port avoidance, selected vs default"}

			p := cluster.WANTuned(cluster.GigabitEthernet())
			p.Name = "gigabit-ethernet-mixed-nics"
			p.NodeLinkRates = []int64{12_500_000} // rank 0 of each campus on 100 Mb
			nodesPer := scaleCount(4, cfg.Scale/0.25, 3)
			topo := cluster.ThreeLevel("gr3", p, 2, 2, nodesPer,
				cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))

			pl, err := grid.NewPlanner(topo, grid.Options{
				FitN:    scaleCount(6, cfg.Scale, 6),
				SimMode: cfg.SimMode,
				Trace:   cfg.Trace,
				Reps:    cfg.Reps,
				Seed:    cfg.Seed + 3,
			})
			if err != nil {
				res.Note("planner characterization failed: %v", err)
				return res
			}
			for l, rates := range pl.Headroom {
				res.Note("campus %d probed headroom: rank0=%.0f MB/s others≈%.0f MB/s",
					l, rates[0]/1e6, rates[len(rates)-1]/1e6)
			}

			m := scaleSize(48<<10, cfg.Scale/0.25)
			choices, err := pl.SelectCoordinators(m)
			if err != nil {
				res.Note("coordinator selection failed: %v", err)
				return res
			}
			nonDefault := 0
			for _, c := range choices {
				res.Note("coordinator choice, %v", c)
				if !c.Default {
					nonDefault++
				}
			}
			res.Note("coordinator selection: %d/%d campuses moved off the lowest rank", nonDefault, len(choices))

			// Selected plan vs lowest-rank default, simulated (averaged
			// over seeds: lossy TCP over a WAN is RTO-noisy).
			win := Series{
				Name: "coord-selection-win",
				Cols: []string{"msg_bytes", "hg_default_s", "hg_selected_s", "speedup_pct"},
			}
			defT, selT := 0.0, 0.0
			seeds := []int64{cfg.Seed + 6, cfg.Seed + 18}
			for _, seed := range seeds {
				w := coll.Uniform(coll.KindAlltoall, m)
				d, err := grid.Run(topo, w, grid.HierGather, cfg.simRun(seed))
				if err != nil {
					res.Note("default simulation failed: %v", err)
					return res
				}
				spec := pl.PlanSpec()
				selected := cfg.simRun(seed)
				selected.Spec = &spec
				s, err := grid.Run(topo, w, grid.HierGather, selected)
				if err != nil {
					res.Note("selected simulation failed: %v", err)
					return res
				}
				defT += d.T / float64(len(seeds))
				selT += s.T / float64(len(seeds))
			}
			win.Rows = append(win.Rows, []float64{float64(m), defT, selT, 100 * (defT/selT - 1)})
			res.Note("hier-gather at %d B: default %.3fs, selected %.3fs (%.0f%% faster)",
				m, defT, selT, 100*(defT/selT-1))

			// Ranking acceptance with the selection applied: predictions
			// against simulation per strategy, hierarchical strategies
			// running the selected plan.
			s := Series{
				Name: "pred-vs-sim-selected",
				Cols: []string{"msg_bytes", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}
			preds := pl.Predict(m)
			predOf := map[grid.Strategy]float64{}
			for _, pr := range preds {
				predOf[pr.Strategy] = pr.T
			}
			simBest, simBestT := grid.Strategy(-1), math.Inf(1)
			for _, strat := range grid.Strategies {
				simT := 0.0
				for _, seed := range seeds {
					sr := cfg.simRun(seed)
					if _, ok := grid.DescribeStrategy(strat); ok {
						spec := pl.PlanSpec()
						sr.Spec = &spec
					}
					one, err := grid.Run(topo, coll.Uniform(coll.KindAlltoall, m), strat, sr)
					if err != nil {
						res.Note("m=%d %v: simulation failed: %v", m, strat, err)
						return res
					}
					simT += one.T / float64(len(seeds))
				}
				pred := predOf[strat]
				s.Rows = append(s.Rows, []float64{
					float64(m), float64(strat), pred, simT, 100 * (pred/simT - 1),
				})
				if simT < simBestT {
					simBest, simBestT = strat, simT
				}
			}
			res.Series = append(res.Series, s, win)
			res.Note("strategies: 0=flat-direct 1=hier-gather 2=hier-direct")
			if preds[0].Strategy == simBest {
				res.Note("planner and simulation agree on %v", preds[0].Strategy)
			} else {
				res.Note("planner picked %v, simulation preferred %v", preds[0].Strategy, simBest)
			}
			return res
		},
	})
}
