package exp

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
)

// GR7: the collective suite on grids — per-kind prediction vs
// simulation. The same two topologies GR4 validated All-to-Allv on (a
// two-level 2×GigE grid over 20 ms and a 3-level 2×2 campus grid over
// 10/40 ms) run Allgather, Broadcast and Allreduce (Config.Coll
// narrows to one kind, e.g. `atabench -exp GR7 -coll reduce-scatter`)
// under every candidate strategy (grid.StrategiesFor: the flat
// topology-oblivious kernel vs the hierarchical coordinator-relay
// plan). The planner prices each through the per-kind tier
// decomposition plus its lazily calibrated correction curve
// (Planner.PredictKind) and the experiment reports per-strategy
// prediction error and whether the kind's flat-vs-hier ranking matches
// packet-level simulation (regret-based: a pick simulating within 3% of
// the best counts, since single-digit-percent gaps are RTO noise) — the
// collective-suite analogue of GR1/GR4's
// validation, and the experiment that shows topology-aware planning
// paying off across the whole suite, not just the total exchange.
func init() {
	register(Experiment{
		ID:    "GR7",
		Title: "Grid: collective suite (allgather/broadcast/reduce/allreduce), prediction vs simulation",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR7", Title: "Grid planner: collective-suite prediction vs simulation"}

			kinds := []coll.Kind{coll.KindAllgather, coll.KindBroadcast, coll.KindAllreduce}
			if cfg.Coll != "" {
				k, err := coll.ParseKind(cfg.Coll)
				if err != nil {
					res.Note("bad -coll: %v", err)
					return res
				}
				if k == coll.KindAlltoallv {
					res.Note("%v is size-bound; its validation is GR4", k)
					return res
				}
				kinds = []coll.Kind{k}
			}
			m := scaleSize(64<<10, cfg.Scale/0.25)

			ge := cluster.WANTuned(cluster.GigabitEthernet())
			topos := []struct {
				name string
				topo cluster.TopoNode
			}{
				{"2lvl-2x4-wan20", cluster.Uniform("gr7-2lvl", ge, 2,
					scaleCount(4, cfg.Scale/0.25, 4), cluster.DefaultWAN(20*sim.Millisecond)).Tree()},
				{"3lvl-2x2x2-wan10/40", cluster.ThreeLevel("gr7-3lvl", ge, 2, 2,
					scaleCount(2, cfg.Scale/0.25, 2),
					cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))},
			}

			s := Series{
				Name: "kind-vs-sim",
				Cols: []string{"topo_idx", "kind_idx", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
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
				for ki, kind := range kinds {
					preds, err := pl.PredictKind(kind, m)
					if err != nil {
						res.Note("%s %v: prediction failed: %v", tc.name, kind, err)
						continue
					}
					predOf := map[grid.Strategy]float64{}
					for _, pr := range preds {
						predOf[pr.Strategy] = pr.T
					}
					simOf := map[grid.Strategy]float64{}
					simBest, simBestT := grid.Strategy(-1), math.Inf(1)
					for _, strat := range grid.StrategiesFor(kind) {
						// Average over two seeds: single runs of lossy TCP
						// over a WAN are RTO-noisy.
						simT := 0.0
						simErr := false
						for _, seed := range []int64{cfg.Seed + 6, cfg.Seed + 18} {
							one, err := grid.Run(tc.topo, coll.Uniform(kind, m), strat, cfg.simRun(seed))
							if err != nil {
								res.Note("%s %v %v: simulation failed: %v", tc.name, kind, strat, err)
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
							float64(ti), float64(ki), float64(strat), pred, simT, errPct,
						})
						simOf[strat] = simT
						if simT < simBestT {
							simBest, simBestT = strat, simT
						}
					}
					if math.IsInf(simBestT, 1) {
						res.Note("%s %v: no successful simulations, case skipped", tc.name, kind)
						continue
					}
					total++
					best := preds[0]
					// Ranking agreement is regret-based: the planner's
					// pick counts if it simulates within 3% of the best
					// strategy — below the RTO noise floor of two-seed
					// WAN averages, where exact argmin order is chance
					// (e.g. flat and hierarchical broadcast are both one
					// WAN transfer plus local relays).
					pickT, ok := simOf[best.Strategy]
					switch {
					case ok && best.Strategy == simBest:
						agree++
						res.Note("%s %v: planner and simulation agree on %v", tc.name, kind, best.Strategy)
					case ok && pickT <= simBestT*1.03:
						agree++
						res.Note("%s %v: planner picked %v, statistically tied with simulation's %v (%.1f%% apart)",
							tc.name, kind, best.Strategy, simBest, 100*(pickT/simBestT-1))
					default:
						res.Note("%s %v: planner picked %v, simulation preferred %v",
							tc.name, kind, best.Strategy, simBest)
					}
				}
			}
			res.Series = append(res.Series, s)
			res.Note("strategies: 0=flat-direct 1=hier-gather")
			kindNames := ""
			for i, k := range kinds {
				if i > 0 {
					kindNames += " "
				}
				kindNames += k.String()
			}
			res.Note("kinds (by kind_idx): %s; per-rank contribution m=%d B", kindNames, m)
			res.Note("planner/simulation best-strategy agreement: %d/%d (topology, kind) cases", agree, total)
			return res
		},
	})
}
