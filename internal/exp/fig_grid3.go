package exp

import "repro/internal/grid"

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

			topo := heteroGrid("gr3", cfg)
			pl, err := grid.NewPlanner(topo, cfg.plannerOpts(6, 3))
			if err != nil {
				res.Note("planner characterization failed: %v", err)
				return res
			}
			for l, rates := range pl.Headroom {
				res.Note("campus %d probed headroom: rank0=%.0f MB/s others≈%.0f MB/s",
					l, rates[0]/1e6, rates[len(rates)-1]/1e6)
			}

			cases := alltoallCases(cfg, 48<<10)
			m := cases[0].w.M
			choices, err := pl.SelectCoordinators(m)
			if err != nil {
				res.Note("coordinator selection failed: %v", err)
				return res
			}
			for _, c := range choices {
				res.Note("coordinator choice, %v", c)
			}
			res.Note("coordinator selection: %d/%d campuses moved off the lowest rank",
				countNonDefault(choices), len(choices))

			// Selected plan vs lowest-rank default, simulated (averaged
			// over seeds: lossy TCP over a WAN is RTO-noisy).
			spec := pl.PlanSpec()
			defT, err := cfg.simMean(topo, cases[0].w, grid.HierGather, nil)
			if err != nil {
				res.Note("default simulation failed: %v", err)
				return res
			}
			selT, err := cfg.simMean(topo, cases[0].w, grid.HierGather, &spec)
			if err != nil {
				res.Note("selected simulation failed: %v", err)
				return res
			}
			win := Series{
				Name: "coord-selection-win",
				Cols: []string{"msg_bytes", "hg_default_s", "hg_selected_s", "speedup_pct"},
				Rows: [][]float64{{float64(m), defT, selT, 100 * (defT/selT - 1)}},
			}
			res.Note("hier-gather at %d B: default %.3fs, selected %.3fs (%.0f%% faster)",
				m, defT, selT, 100*(defT/selT-1))

			// Ranking acceptance with the selection applied: predictions
			// against simulation per strategy, hierarchical strategies
			// running the selected plan.
			sw := gridSweep{cfg: cfg, res: &res, rows: Series{
				Name: "pred-vs-sim-selected",
				Cols: []string{"msg_bytes", "strat_idx", "predicted_s", "simulated_s", "err_pct"},
			}}
			sw.run(pl, topo, &spec, nil, cases)
			sw.publish()
			res.Series = append(res.Series, win)
			return res
		},
	})
}
