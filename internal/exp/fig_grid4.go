package exp

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// GR4: irregular All-to-Allv on grids — prediction vs simulation under
// skewed per-pair size matrices. Two topologies (a two-level 2×GigE
// grid over 20 ms and a 3-level 2×2 campus grid over 10/40 ms) run the
// canonical skewed workloads (cluster.SkewedWorkloads: hotspot-row, a
// master rank fanning out 4× bulk; block-diagonal, thin local blocks
// with 4× cross-cluster halos) under all three strategies. The planner
// prices each strategy from the size matrix's actual tier cuts
// (Planner.PredictV) and the experiment reports per-strategy
// prediction error and whether the v-ranking matches packet-level
// All-to-Allv simulation — the scenario-diversity jump past the
// uniform GR1/GR2 validation.
func init() {
	register(Experiment{
		ID:    "GR4",
		Title: "Grid: irregular All-to-Allv, prediction vs simulation on skewed size matrices",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR4", Title: "Grid planner: All-to-Allv prediction vs simulation"}

			ge := cluster.WANTuned(cluster.GigabitEthernet())
			topos := []struct {
				name string
				topo cluster.TopoNode
			}{
				{"2lvl-2x4-wan20", cluster.Uniform("gr4-2lvl", ge, 2,
					scaleCount(4, cfg.Scale/0.25, 4), cluster.DefaultWAN(20*sim.Millisecond)).Tree()},
				{"3lvl-2x2x2-wan10/40", cluster.ThreeLevel("gr4-3lvl", ge, 2, 2,
					scaleCount(2, cfg.Scale/0.25, 2),
					cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))},
			}

			s := Series{
				Name: "predv-vs-sim",
				Cols: []string{"topo_idx", "pattern_idx", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}
			agree, total := 0, 0
			for ti, tc := range topos {
				pl, err := grid.NewPlanner(tc.topo, grid.Options{
					FitN:    scaleCount(6, cfg.Scale, 6),
					SimMode: cfg.SimMode,
					Trace:   cfg.Trace,
					Reps:    cfg.Reps,
					Seed:    cfg.Seed + 2,
				})
				if err != nil {
					res.Note("%s: planner characterization failed: %v", tc.name, err)
					continue
				}
				res.Note("%s: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)

				workloads := cluster.SkewedWorkloads(tc.topo)
				names := make([]string, 0, len(workloads))
				for name := range workloads {
					names = append(names, name)
				}
				sort.Strings(names)
				for pi, name := range names {
					sz := coll.SizeMatrixFromRows(workloads[name])
					preds := pl.PredictV(sz)
					predOf := map[grid.Strategy]float64{}
					for _, pr := range preds {
						predOf[pr.Strategy] = pr.T
					}
					simBest, simBestT := grid.Strategy(-1), math.Inf(1)
					for _, strat := range grid.Strategies {
						// Average over two seeds: single runs of lossy
						// TCP over a WAN are RTO-noisy.
						simT := 0.0
						simErr := false
						for _, seed := range []int64{cfg.Seed + 6, cfg.Seed + 18} {
							one, err := grid.Run(tc.topo, coll.Irregular(sz), strat, cfg.simRun(seed))
							if err != nil {
								res.Note("%s %s %v: simulation failed: %v", tc.name, name, strat, err)
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
							float64(ti), float64(pi), float64(strat), pred, simT, errPct,
						})
						if simT < simBestT {
							simBest, simBestT = strat, simT
						}
					}
					if math.IsInf(simBestT, 1) {
						res.Note("%s %s: no successful simulations, case skipped", tc.name, name)
						continue
					}
					total++
					best := preds[0]
					if best.Strategy == simBest {
						agree++
						res.Note("%s %s: planner and simulation agree on %v", tc.name, name, best.Strategy)
					} else {
						res.Note("%s %s: planner picked %v, simulation preferred %v",
							tc.name, name, best.Strategy, simBest)
					}
				}
			}
			res.Series = append(res.Series, s)
			res.Note("strategies: 0=flat-direct 1=hier-gather 2=hier-direct")
			res.Note("patterns: 0=block-diagonal (16k local / 64k cross) 1=hotspot-row (48k base, rank 0 ×4)")
			res.Note("planner/simulation best-strategy agreement: %d/%d (topology, matrix) cases", agree, total)
			return res
		},
	})
}
