package exp

import (
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// GR6: resilience on the heterogeneous grid. The topology is GR3's
// hetero-3lvl shape — 2 nations × 2 campuses of Gigabit Ethernet over
// 10 ms campus and 40 ms continental tiers, every campus's lowest rank
// on a legacy 100 Mb access port — and the experiment injects the two
// failures a long-running grid actually sees (docs/RESILIENCE.md):
//
//  1. Coordinator loss mid-collective: the planner-selected hier-gather
//     plan runs under the epoch-failover runtime, the selected campus-0
//     coordinator's host is removed 25 ms in, and the run must finish
//     among the survivors with exactly-once delivery by promoting the
//     plan's headroom-ranked standby. Reported against a fault-free run
//     of the same plan, so the failover overhead (timeout wait +
//     recovery epochs) is isolated.
//  2. Degraded-port delta: a monitor reports campus 0's legacy port
//     collapsing to 10% of its characterized rate. Service.ReportDelta
//     must invalidate exactly that campus's store records, refit it
//     from fresh probes while every other tier replans warm from the
//     store, and move the campus coordinator off the degraded port.
//     The probe accounting (cold build vs replan) is the scope proof.
func init() {
	register(Experiment{
		ID:    "GR6",
		Title: "Grid: coordinator failover and replan-on-delta (hetero 2×2 GigE, degraded rank-0 NICs, 10/40ms WAN)",
		Run: func(cfg Config) Result {
			cfg = cfg.withDefaults()
			res := Result{ID: "GR6", Title: "Resilience: standby failover cost and warm replan scope"}

			// The probe accounting below reads planner.probes, so the
			// experiment needs a collector even when the caller didn't
			// ask for a trace.
			tc := cfg.Trace
			if tc == nil {
				tc = obs.New()
			}
			topo := heteroGrid("gr6", cfg)
			opts := cfg.plannerOpts(6, 4)
			opts.Trace = tc
			svc, err := grid.NewService(opts)
			if err != nil {
				res.Note("service construction failed: %v", err)
				return res
			}
			m := scaleSize(48<<10, cfg.Scale/0.25)
			choices, err := svc.SelectCoordinators(topo, m)
			if err != nil {
				res.Note("coordinator selection failed: %v", err)
				return res
			}
			coldProbes := counterValues(tc)[grid.CtrProbes]
			pl, err := svc.PlannerFor(topo)
			if err != nil {
				res.Note("planner lookup failed: %v", err)
				return res
			}
			spec := pl.PlanSpec()

			// Victim: the selected coordinator of the first campus (its
			// default lowest rank if selection kept the default).
			firstLeaf := &spec
			for len(firstLeaf.Children) > 0 {
				firstLeaf = &firstLeaf.Children[0]
			}
			victim := firstLeaf.Ranks[0]
			if len(firstLeaf.Coords) > 0 {
				victim = firstLeaf.Coords[0]
			}
			g, err := cluster.BuildGridTree(topo, cfg.Seed+4)
			if err != nil {
				res.Note("grid build failed: %v", err)
				return res
			}
			victimHost := g.Env.Hosts[victim].Name()
			res.Note("campus-0 coordinator: rank %d (host %s), standbys %v",
				victim, victimHost, firstLeaf.Standbys)

			timeout := 400 * sim.Millisecond
			w := coll.Uniform(coll.KindAlltoall, m)
			sr := grid.SimRun{
				Trace: tc, Sim: grid.SimConfig{Mode: cfg.SimMode}, Seed: cfg.Seed + 6,
				Spec: &spec, Faults: &netsim.FaultSchedule{}, Timeout: timeout,
			}
			base, err := grid.Run(topo, w, grid.HierGather, sr)
			if err != nil {
				res.Note("fault-free run failed: %v", err)
				return res
			}
			sr.Faults = &netsim.FaultSchedule{Nodes: []netsim.NodeFault{
				{Host: victimHost, At: 25 * sim.Millisecond},
			}}
			fail, err := grid.Run(topo, w, grid.HierGather, sr)
			if err != nil {
				res.Note("faulted run failed: %v", err)
				return res
			}
			baseRes, baseT, failRes, failT := base.Failover, base.T, fail.Failover, fail.T
			fo := Series{
				Name: "coordinator-failover",
				Cols: []string{"msg_bytes", "baseline_s", "failover_s",
					"epochs", "dead", "delivered", "waived"},
			}
			fo.Rows = append(fo.Rows, []float64{
				float64(m), baseT, failT,
				float64(failRes.Epochs), float64(len(failRes.Dead)),
				float64(failRes.DeliveredBlocks), float64(failRes.WaivedBlocks),
			})
			res.Note("fault-free: %.3fs in %d epoch(s); coordinator lost at 25ms: %.3fs in %d epochs, dead %v, %d blocks delivered, %d waived, incomplete=%v",
				baseT, baseRes.Epochs, failT, failRes.Epochs, failRes.Dead,
				failRes.DeliveredBlocks, failRes.WaivedBlocks, failRes.Incomplete)
			res.Note("failover overhead: +%.3fs (%.0f%% of the fault-free run; timeout %s dominates)",
				failT-baseT, 100*(failT/baseT-1), timeout)

			// Degraded-port delta: campus 0's legacy port drops to 10% of
			// its characterized rate (100 Mb -> 10 Mb). The replan must
			// refit only that campus — every other tier's curves come
			// warm from the store.
			campus := topo.Children[0].Children[0]
			degP := campus.Profile
			degP.Name += "-deg0"
			degP.NodeLinkRates = []int64{1_250_000}
			degTopo := topo
			degTopo.Children = append([]cluster.TopoNode(nil), topo.Children...)
			n0 := degTopo.Children[0]
			n0.Children = append([]cluster.TopoNode(nil), n0.Children...)
			n0.Children[0] = cluster.Leaf(degP, campus.Nodes)
			degTopo.Children[0] = n0

			pre := counterValues(tc)
			rep, err := svc.ReportDelta(degTopo, grid.TierKey(campus),
				grid.Delta{RateFactor: 0.1, Size: m, Source: "gr6-nic-monitor"})
			if err != nil {
				res.Note("replan failed: %v", err)
				return res
			}
			post := counterValues(tc)
			replanProbes := post[grid.CtrProbes] - pre[grid.CtrProbes]
			replanHits := post[grid.CtrStoreHit] - pre[grid.CtrStoreHit]
			replanRefits := post[grid.CtrStoreRefit] - pre[grid.CtrStoreRefit]

			// The probe ceiling: a from-scratch characterization of the
			// changed grid (no store), coordinator selection included —
			// what a planner without replan-on-delta would have to pay.
			// The initial build is NOT a fair ceiling because its four
			// identical campuses dedupe to one tier characterization; the
			// degraded grid has two distinct campus tiers.
			opts.Trace = obs.New()
			coldPl, err := grid.NewPlanner(degTopo, opts)
			if err != nil {
				res.Note("cold degraded build failed: %v", err)
				return res
			}
			if _, err := coldPl.SelectCoordinators(m); err != nil {
				res.Note("cold degraded selection failed: %v", err)
				return res
			}
			coldDegProbes := counterValues(opts.Trace)[grid.CtrProbes]

			rp := Series{
				Name: "replan-on-delta",
				Cols: []string{"initial_probes", "cold_rebuild_probes", "replan_probes",
					"dropped_records", "store_hits", "store_refits", "nondefault_choices"},
			}
			nonDefault := countNonDefault(rep.Choices)
			rp.Rows = append(rp.Rows, []float64{
				coldProbes, coldDegProbes, replanProbes,
				float64(rep.DroppedRecords), replanHits, replanRefits, float64(nonDefault),
			})
			res.Series = append(res.Series, fo, rp)
			res.Note("replan: invalidated %d store records, refit %d tier(s) with %d warm store hits covering the rest, %d/%d campuses off the default coordinator after refit",
				rep.DroppedRecords, int(replanRefits), int(replanHits), nonDefault, len(rep.Choices))
			if len(rep.Predictions) > 0 {
				res.Note("post-replan best strategy: %v (%.3fs predicted)",
					rep.Predictions[0].Strategy, rep.Predictions[0].T)
			}
			if len(rep.Choices) > 0 {
				res.Note("degraded campus choice, %v", rep.Choices[0])
			}
			res.Note("probe scope: replan %d probes vs %d for a from-scratch build of the degraded grid (initial build: %d, its identical campuses dedupe to one tier)",
				int(replanProbes), int(coldDegProbes), int(coldProbes))
			res.Note("initial selection moved %d/%d campuses off the lowest rank", countNonDefault(choices), len(choices))
			return res
		},
	})
}
