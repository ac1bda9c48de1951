package exp

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
)

// GR4: irregular All-to-Allv on grids — prediction vs simulation under
// skewed per-pair size matrices. Two topologies (a two-level 2×GigE
// grid over 20 ms and a 3-level 2×2 campus grid over 10/40 ms) run the
// canonical skewed workloads (cluster.SkewedWorkloads: hotspot-row, a
// master rank fanning out 4× bulk; block-diagonal, thin local blocks
// with 4× cross-cluster halos) under all three strategies. The planner
// prices each strategy from the size matrix's actual tier cuts (the
// sweep's predictAll dispatch sends a coll.Irregular workload to
// Planner.PredictV) and the experiment reports per-strategy
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

			sw := gridSweep{cfg: cfg, res: &res, rows: Series{
				Name: "predv-vs-sim",
				Cols: []string{"topo_idx", "pattern_idx", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}}
			forValidationPair(cfg, &res, "gr4", func(ti int, tc namedTopo, pl *grid.Planner) {
				res.Note("%s: γ_wan(root)=[%s] ω=[%s] κ=[%s]", tc.name,
					pl.Model.Root.Wan.Gamma, pl.Model.OverlapGamma, pl.Model.GatherGamma)
				sw.run(pl, tc.topo, nil, nil, skewedCases(ti, tc))
			})
			sw.publish()
			res.Note(skewedPatterns)
			sw.noteAgreement("planner/simulation best-strategy agreement: %d/%d (topology, matrix) cases")
			return res
		},
	})
}

// skewedPatterns is the pattern_idx legend of skewedCases.
const skewedPatterns = "patterns: 0=block-diagonal (16k local / 64k cross) 1=hotspot-row (48k base, rank 0 ×4)"

// skewedCases is the case table GR4 and GR5 share: the topology's
// canonical skewed size matrices in name order, keyed by (topo_idx,
// pattern_idx) and labelled "<topology> <pattern>".
func skewedCases(ti int, tc namedTopo) []gridCase {
	workloads := cluster.SkewedWorkloads(tc.topo)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	cases := make([]gridCase, len(names))
	for pi, name := range names {
		cases[pi] = gridCase{tc.name + " " + name, []float64{float64(ti), float64(pi)},
			coll.Irregular(coll.SizeMatrixFromRows(workloads[name]))}
	}
	return cases
}
