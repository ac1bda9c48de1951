package exp

import (
	"fmt"
	"strings"

	"repro/internal/coll"
	"repro/internal/grid"
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
// (Planner.PredictKind, reached through the sweep's predictAll
// dispatch) and the experiment reports per-strategy
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

			// Ranking agreement is regret-based: the planner's pick
			// counts if it simulates within 3% of the best strategy —
			// below the RTO noise floor of two-seed WAN averages, where
			// exact argmin order is chance (e.g. flat and hierarchical
			// broadcast are both one WAN transfer plus local relays).
			sw := gridSweep{cfg: cfg, res: &res, tol: 0.03, rows: Series{
				Name: "kind-vs-sim",
				Cols: []string{"topo_idx", "kind_idx", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}}
			forValidationPair(cfg, &res, "gr7", func(ti int, tc namedTopo, pl *grid.Planner) {
				cases := make([]gridCase, len(kinds))
				for ki, kind := range kinds {
					cases[ki] = gridCase{tc.name + " " + kind.String(),
						[]float64{float64(ti), float64(ki)}, coll.Uniform(kind, m)}
				}
				sw.run(pl, tc.topo, nil, nil, cases)
			})
			sw.publish()
			res.Note("kinds (by kind_idx): %s; per-rank contribution m=%d B", strings.Trim(fmt.Sprint(kinds), "[]"), m)
			sw.noteAgreement("planner/simulation best-strategy agreement: %d/%d (topology, kind) cases")
			return res
		},
	})
}
