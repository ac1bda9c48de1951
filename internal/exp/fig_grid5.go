package exp

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/sim"
)

// scalarized returns a copy of a grid model with every factor curve
// collapsed to its single value at the given size — the scalar-factor
// baseline. For `at` equal to a fitted probe size this IS the model a
// single-probe-size planner run would assemble (an exact-hit lookup
// returns the fitted point, and the probe seeds don't depend on the
// size list), so GR5 gets its baseline without re-characterizing: the
// two planners then differ in nothing but the size-indexed lookups the
// experiment measures.
func scalarized(g model.GridModel, at int) model.GridModel {
	var clone func(v *model.ModelNode) *model.ModelNode
	clone = func(v *model.ModelNode) *model.ModelNode {
		out := &model.ModelNode{
			Size: v.Size, LAN: v.LAN,
			NumCoords: v.NumCoords, CoordBeta: v.CoordBeta,
			Wan: v.Wan,
		}
		out.Wan.Gamma = model.ScalarFactor(v.Wan.Gamma.At(at))
		for _, c := range v.Children {
			out.Children = append(out.Children, clone(c))
		}
		return out
	}
	return model.GridModel{
		Root:         clone(g.Root),
		OverlapGamma: model.ScalarFactor(g.OverlapGamma.At(at)),
		GatherGamma:  model.ScalarFactor(g.GatherGamma.At(at)),
	}
}

// GR5: size-indexed factor calibration on skewed workloads. GR4
// established that with scalar factors (one 64 KiB fit reused at every
// size) the planner's ranking survives skew but single-strategy
// magnitudes drift — worst for hier-direct on the two-level topology's
// block-diagonal and hotspot matrices. GR5 reruns GR4's
// topologies × skews with the curve planner (default 8/64/256 KiB
// probe sweep) and, against the same simulations, a scalar baseline
// derived from the same characterization (every curve collapsed to its
// 64 KiB fit — exactly the single-probe-size planner's model), so the
// reported error gap isolates the size-indexed lookups: curves fitted
// where they can be measured, looked up at the effective sizes each
// matrix actually moves.
func init() {
	register(Experiment{
		ID:    "GR5",
		Title: "Grid: size-indexed factor curves vs scalar factors on skewed size matrices",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR5", Title: "Factor curves: magnitude error vs the scalar-factor baseline"}

			ge := cluster.WANTuned(cluster.GigabitEthernet())
			topos := []struct {
				name string
				topo cluster.TopoNode
			}{
				{"2lvl-2x4-wan20", cluster.Uniform("gr5-2lvl", ge, 2,
					scaleCount(4, cfg.Scale/0.25, 4), cluster.DefaultWAN(20*sim.Millisecond)).Tree()},
				{"3lvl-2x2x2-wan10/40", cluster.ThreeLevel("gr5-3lvl", ge, 2, 2,
					scaleCount(2, cfg.Scale/0.25, 2),
					cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))},
			}

			s := Series{
				Name: "curve-vs-scalar",
				Cols: []string{"topo_idx", "pattern_idx", "strat_idx",
					"pred_scalar_s", "pred_curve_s", "simulated_s",
					"err_scalar_pct", "err_curve_pct"},
			}
			agree, total := 0, 0
			var scalarAbs, curveAbs []float64
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
				scalar := scalarized(pl.Model, 64<<10) // the GR4 baseline
				res.Note("%s scalar: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					scalar.Root.Wan.Gamma, scalar.OverlapGamma, scalar.GatherGamma)
				res.Note("%s curves: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)

				workloads := cluster.SkewedWorkloads(tc.topo)
				names := make([]string, 0, len(workloads))
				for name := range workloads {
					names = append(names, name)
				}
				sort.Strings(names)
				for pi, name := range names {
					sz := coll.SizeMatrixFromRows(workloads[name])
					scalarOf := map[grid.Strategy]float64{}
					for _, strat := range grid.Strategies {
						scalarOf[strat] = scalar.Predict(coll.Irregular(sz), strat, cfg.Trace)
					}
					preds := pl.PredictV(sz)
					curveOf := map[grid.Strategy]float64{}
					for _, pr := range preds {
						curveOf[pr.Strategy] = pr.T
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
						errS := 100 * (scalarOf[strat]/simT - 1)
						errC := 100 * (curveOf[strat]/simT - 1)
						scalarAbs = append(scalarAbs, math.Abs(errS))
						curveAbs = append(curveAbs, math.Abs(errC))
						s.Rows = append(s.Rows, []float64{
							float64(ti), float64(pi), float64(strat),
							scalarOf[strat], curveOf[strat], simT, errS, errC,
						})
						if simT < simBestT {
							simBest, simBestT = strat, simT
						}
						// The two cases GR4 flags as scalar drift: both on
						// the two-level topology, both hier-direct.
						if ti == 0 && strat == grid.HierDirect {
							res.Note("%s %s %v (GR4-flagged): |err| scalar %.0f%% → curve %.0f%%",
								tc.name, name, strat, math.Abs(errS), math.Abs(errC))
						}
					}
					if math.IsInf(simBestT, 1) {
						res.Note("%s %s: no successful simulations, case skipped", tc.name, name)
						continue
					}
					total++
					if preds[0].Strategy == simBest {
						agree++
					} else {
						res.Note("%s %s: curve planner picked %v, simulation preferred %v",
							tc.name, name, preds[0].Strategy, simBest)
					}
				}
			}
			res.Series = append(res.Series, s)
			mean := func(v []float64) float64 {
				if len(v) == 0 {
					return 0
				}
				t := 0.0
				for _, x := range v {
					t += x
				}
				return t / float64(len(v))
			}
			res.Note("strategies: 0=flat-direct 1=hier-gather 2=hier-direct")
			res.Note("patterns: 0=block-diagonal (16k local / 64k cross) 1=hotspot-row (48k base, rank 0 ×4)")
			res.Note("mean |err|: scalar %.0f%% vs curves %.0f%% over %d (topology, matrix, strategy) rows",
				mean(scalarAbs), mean(curveAbs), len(scalarAbs))
			res.Note("curve-planner/simulation best-strategy agreement: %d/%d cases", agree, total)
			return res
		},
	})
}
