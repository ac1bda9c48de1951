package exp

import (
	"math"

	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/stats"
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

			sw := gridSweep{cfg: cfg, res: &res, rows: Series{
				Name: "curve-vs-scalar",
				Cols: []string{"topo_idx", "pattern_idx", "strat_idx",
					"pred_scalar_s", "pred_curve_s", "simulated_s",
					"err_scalar_pct", "err_curve_pct"},
			}}
			const patternCol, stratCol, errScalarCol, errCurveCol = 1, 2, 6, 7
			var scalarAbs, curveAbs []float64
			forValidationPair(cfg, &res, "gr5", func(ti int, tc namedTopo, pl *grid.Planner) {
				scalar := scalarized(pl.Model, 64<<10) // the GR4 baseline
				res.Note("%s scalar: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					scalar.Root.Wan.Gamma, scalar.OverlapGamma, scalar.GatherGamma)
				res.Note("%s curves: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)

				cases := skewedCases(ti, tc)
				first := len(sw.rows.Rows)
				sw.run(pl, tc.topo, nil, func(w coll.Workload, strat grid.Strategy) float64 {
					return scalar.Predict(w, strat, cfg.Trace)
				}, cases)
				for _, row := range sw.rows.Rows[first:] {
					errS, errC := math.Abs(row[errScalarCol]), math.Abs(row[errCurveCol])
					scalarAbs, curveAbs = append(scalarAbs, errS), append(curveAbs, errC)
					// The two cases GR4 flags as scalar drift: both on the
					// two-level topology, both hier-direct.
					if strat := grid.Strategy(row[stratCol]); ti == 0 && strat == grid.HierDirect {
						res.Note("%s %v (GR4-flagged): |err| scalar %.0f%% → curve %.0f%%",
							cases[int(row[patternCol])].label, strat, errS, errC)
					}
				}
			})
			sw.publish()
			res.Note(skewedPatterns)
			res.Note("mean |err|: scalar %.0f%% vs curves %.0f%% over %d (topology, matrix, strategy) rows",
				stats.Mean(scalarAbs), stats.Mean(curveAbs), len(scalarAbs))
			sw.noteAgreement("curve-planner/simulation best-strategy agreement: %d/%d cases")
			return res
		},
	})
}
