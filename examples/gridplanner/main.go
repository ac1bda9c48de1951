// gridplanner shows the downstream use case the paper motivates
// (application performance prediction frameworks, grid-aware collective
// optimization à la LaPIe/MagPIe), extended to multi-level grids:
// given candidate deployments — flat two-level grids and a 3-level
// campus → national → continental topology — characterize each once
// (per-cluster contention signatures plus one empirical WAN term per
// tier), then, for an All-to-All-dominated workload, let the planner
// pick the best exchange strategy per deployment and choose the
// cheapest deployment meeting a deadline, all without running the
// workload.
//
// Coordinator choice is part of the plan: the planner probes per-node
// uplink headroom during characterization and, per leaf cluster, picks
// which rank(s) relay the hierarchical exchange — steering off degraded
// NICs and splitting wide clusters' gather incast across several
// coordinator ports. The chosen coordinators are rendered per
// deployment below.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/textplot"
)

// candidate is a grid we could rent, with a per-node-hour cost.
type candidate struct {
	topo        cluster.TopoNode
	nodeCostEUR float64
}

func main() {
	traceOut := flag.String("trace", "", "write an NDJSON observability trace of the run to this file")
	storePath := flag.String("store", "", "persist fitted characterization curves to this JSON file (loaded if present, written back after the run)")
	replanFlag := flag.Bool("replan", false, "after planning, report a degraded-NIC delta on the fe2 deployment and replan it (Service.ReportDelta); with -trace, the trace shows the invalidated tier refitting while unaffected tiers hit the store")
	flag.Parse()
	// The trace collector threads through every planner characterization
	// and the traced validation runs below; nil (no -trace) disables all
	// recording. See docs/OBSERVABILITY.md for the event schema.
	var tc *obs.Collector
	if *traceOut != "" {
		tc = obs.New()
	}

	// With -store, fitted curves persist across runs: the first run
	// characterizes every deployment and writes the store; later runs
	// load it and predict without a single probe (check with
	// -trace + tracecheck -counter planner.probes=0). See docs/SERVICE.md.
	var store *grid.CurveStore
	if *storePath != "" {
		st, err := grid.LoadCurveStoreFile(*storePath)
		switch {
		case err == nil:
			store = st
			fmt.Printf("loaded characterization store %s (%d records)\n\n", *storePath, store.Len())
		case !os.IsNotExist(err):
			panic(err)
		}
	}

	// Workload: an iterative solver doing 30 All-to-All exchanges of
	// 48 kB per pair per iteration; deadline 60 s of communication.
	const (
		exchanges = 30
		msgSize   = 48 << 10
		deadline  = 60.0
	)

	// Two flat two-level grids from the canonical catalogue, and one
	// explicit 3-level tree: two nations of two Gigabit Ethernet
	// campuses each, 10 ms metro links inside a nation, a 40 ms
	// continental mesh between nations.
	fe2, err := cluster.GridByName("fe2-wan20")
	if err != nil {
		panic(err)
	}
	mixed, err := cluster.GridByName("mixed-wan30")
	if err != nil {
		panic(err)
	}
	ge := cluster.WANTuned(cluster.GigabitEthernet()) // long-fat-pipe tuning
	threeLvl := cluster.ThreeLevel("ge-2x2x3", ge, 2, 2, 3,
		cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))

	// A deployment with a wide Fast Ethernet cluster next to two small
	// Gigabit ones: any single coordinator port saturates under the wide
	// cluster's gather incast, so the planner splits its relay.
	fe := cluster.WANTuned(cluster.FastEthernet())
	wide := cluster.GridProfile{
		Name: "wide-mixed",
		Members: []cluster.GridMember{
			{Profile: fe, Nodes: 8},
			{Profile: ge, Nodes: 3},
			{Profile: ge, Nodes: 3},
		},
		WAN: cluster.DefaultWAN(20 * sim.Millisecond),
	}

	cands := []candidate{
		{topo: fe2.Tree(), nodeCostEUR: 0.05},
		{topo: mixed.Tree(), nodeCostEUR: 0.08},
		{topo: threeLvl, nodeCostEUR: 0.11},
		{topo: wide.Tree(), nodeCostEUR: 0.06},
	}

	fmt.Printf("workload: %d exchanges of %d B per pair, deadline %.0fs\n\n", exchanges, msgSize, deadline)
	fmt.Printf("%-12s %6s %6s %12s %13s %10s %9s\n",
		"grid", "levels", "nodes", "best_strat", "comm_time_s", "meets_dl", "cost_EUR/h")

	// All planning runs through one Service: each topology is
	// characterized at most once (or not at all when the store already
	// has its curves), and the fits land in the shared store.
	svc, err := grid.NewServiceWithStore(grid.Options{FitN: 6, Reps: 1, Trace: tc}, store)
	if err != nil {
		panic(err)
	}

	bestCost, bestDesc := -1.0, ""
	var widePlanner, threePlanner *grid.Planner
	for _, c := range cands {
		// Characterize each member network and each WAN tier once; the
		// model then predicts any message size on this topology.
		pl, err := svc.PlannerFor(c.topo)
		if err != nil {
			panic(err)
		}
		// Pick coordinators from the probed headroom before ranking:
		// hierarchical predictions then price the selected relay.
		choices, err := svc.SelectCoordinators(c.topo, msgSize)
		if err != nil {
			panic(err)
		}
		preds := pl.Predict(msgSize) // sorted fastest first
		best := preds[0]
		t := float64(exchanges) * best.T
		meets := t <= deadline
		nodes := c.topo.TotalNodes()
		cost := float64(nodes) * c.nodeCostEUR
		fmt.Printf("%-12s %6d %6d %12s %13.1f %10v %9.2f\n",
			c.topo.Name, c.topo.Height()+1, nodes, best.Strategy, t, meets, cost)
		for _, pr := range preds {
			fmt.Printf("%-12s        · %-12s %10.1f\n", "", pr.Strategy, float64(exchanges)*pr.T)
		}
		for _, ch := range choices {
			fmt.Printf("%-12s        · coordinators %s\n", "", ch)
		}
		for _, wn := range pl.Warnings {
			fmt.Printf("%-12s        · warning: %s\n", "", wn)
		}
		if meets && (bestCost < 0 || cost < bestCost) {
			bestCost = cost
			bestDesc = fmt.Sprintf("%s via %s", c.topo.Name, best.Strategy)
		}
		if c.topo.Name == wide.Name {
			widePlanner = pl
		}
		if c.topo.Name == threeLvl.Name {
			threePlanner = pl
		}
	}
	if bestCost >= 0 {
		fmt.Printf("\ncheapest deployment meeting the deadline: %s (%.2f EUR/h)\n", bestDesc, bestCost)
	} else {
		fmt.Println("\nno candidate meets the deadline")
	}

	// With -replan, a monitor reports that one fe2 node's NIC dropped to
	// a tenth of its characterized throughput. ReportDelta invalidates
	// exactly that cluster's tier (the compositional key takes ancestors
	// and whole-tree strategy fits with it), rebuilds the planner warm —
	// the sibling cluster's curves hit the store untouched — and
	// re-selects coordinators off the degraded port. See docs/RESILIENCE.md.
	if *replanFlag {
		deg := fe
		deg.Name = fe.Name + "-deg0"
		deg.NodeLinkRates = []int64{1_250_000} // node 0 at 10% of Fast Ethernet
		degTopo := fe2.Tree()
		degTopo.Children = append([]cluster.TopoNode(nil), degTopo.Children...)
		degTopo.Children[0] = cluster.Leaf(deg, 8)
		rep, err := svc.ReportDelta(degTopo, grid.TierKey(fe2.Tree().Children[0]),
			grid.Delta{RateFactor: 0.1, Size: msgSize, Source: "nic-monitor"})
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nreplan after NIC degradation on %s cluster 0 (observed 0.1× throughput):\n", fe2.Name)
		fmt.Printf("  invalidated %d stale store records; best strategy now %s (%.1fs predicted)\n",
			rep.DroppedRecords, rep.Predictions[0].Strategy,
			float64(exchanges)*rep.Predictions[0].T)
		for _, ch := range rep.Choices {
			fmt.Printf("  · coordinators %s\n", ch)
		}
	}

	// Under the hood: build the 3-level topology and compile the
	// recursive hierarchical plan, then let grid.Run do the same and
	// execute one exchange on the mpi runtime — the code path the
	// planner's predictions stand in for.
	g, err := cluster.BuildGridTree(threeLvl, 1)
	if err != nil {
		panic(err)
	}
	exchange := coll.Uniform(coll.KindAlltoall, msgSize)
	plan, err := coll.Compile(coll.GridSpec(g), exchange, coll.HierGather)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%s plan on %s: %d ranks, %d phases, %d messages (%d cross-cluster)\n",
		plan.Alg, threeLvl.Name, plan.Tree.NumRanks(), plan.NumPhases(),
		plan.NumMessages(), plan.CrossLeafMessages())
	// once measures one hier-gather repetition of w (after one warm-up)
	// at seed 1; sr carries the plan spec and tracing of each call.
	once := func(topo cluster.TopoNode, w coll.Workload, sr grid.SimRun) grid.RunResult {
		sr.Seed, sr.Warmup, sr.Reps = 1, 1, 1
		res, err := grid.Run(topo, w, grid.HierGather, sr)
		if err != nil {
			panic(err)
		}
		return res
	}
	fmt.Printf("one simulated exchange at %d B per pair: %.2fs\n", msgSize,
		once(threeLvl, exchange, grid.SimRun{}).T)

	// The same, with the wide deployment's selected (multi-)coordinator
	// plan: the spec carries the chosen coordinator sets, and the wide
	// leaf's gather/scatter splits across both chosen ports.
	wideSpec := widePlanner.PlanSpec()
	selPlan, err := coll.Compile(wideSpec, exchange, coll.HierGather)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%s plan on %s with selected coordinators", selPlan.Alg, wide.Name)
	for l := 0; l < selPlan.Tree.NumLeaves(); l++ {
		fmt.Printf(" leaf%d=%v", l, selPlan.Tree.Coordinators(l))
	}
	fmt.Printf(": %d ranks, %d phases, %d messages (%d cross-cluster)\n",
		selPlan.Tree.NumRanks(), selPlan.NumPhases(),
		selPlan.NumMessages(), selPlan.CrossLeafMessages())
	fmt.Printf("one simulated exchange at %d B per pair: %.2fs\n", msgSize,
		once(wide.Tree(), exchange, grid.SimRun{Spec: &wideSpec}).T)

	// The contention factors behind those predictions are size-indexed
	// curves, fitted at Options.ProbeSizes (default 8/64/256 KiB) and
	// interpolated in log-size between the fits (docs/MODEL.md §8) —
	// a 48 kB exchange is not priced with a 256 kB probe's factor.
	fmt.Printf("\n%s fitted factor curves: γ_wan(root)=[%s] ω=[%s] κ=[%s]\n",
		threeLvl.Name, threePlanner.Model.Root.Wan.Gamma,
		threePlanner.Model.OverlapGamma, threePlanner.Model.GatherGamma)

	// Irregular workloads: the same characterization ranks strategies
	// per size matrix (All-to-Allv). Here the 3-level deployment runs a
	// hotspot workload — rank 0 fans out 4× bulk to every peer — and the
	// planner prices each tier's WAN leg by the matrix's actual
	// cross-subtree byte cuts (each factor curve looked up at the legs'
	// effective per-flow sizes) instead of n·m (docs/MODEL.md §7–§8).
	hotspot := coll.SizeMatrixFromRows(cluster.HotspotRowBytes(threeLvl, msgSize, 0, 4))
	renderDiagnostics(tc, threePlanner, threeLvl, msgSize)

	fmt.Printf("\nAll-to-Allv on %s (hotspot-row: rank 0 sends 4×%d B per pair):\n",
		threeLvl.Name, msgSize)
	for _, pr := range threePlanner.PredictV(hotspot) { // sorted fastest first
		fmt.Printf("  %-12s %.2fs predicted\n", pr.Strategy, pr.T)
	}
	threeSpec := threePlanner.PlanSpec()
	fmt.Printf("one simulated %s exchange of the hotspot matrix (%d B total): %.2fs\n",
		coll.HierGather, hotspot.Total(),
		once(threeLvl, coll.Irregular(hotspot), grid.SimRun{Spec: &threeSpec}).T)

	// The same characterization prices the whole collective suite: the
	// solver's reduction and redistribution phases reuse the fitted tier
	// curves and κ through the per-kind decomposition (docs/MODEL.md §9),
	// with one lazily calibrated correction curve per kind — persisted in
	// the store like every other fit, so warm runs predict the suite
	// without probing.
	fmt.Printf("\ncollective suite on %s at %d B per rank:\n", threeLvl.Name, msgSize)
	for _, kind := range []coll.Kind{coll.KindBroadcast, coll.KindAllgather, coll.KindAllreduce} {
		preds, err := svc.PredictKind(threeLvl, kind, msgSize)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-15s best %-12s %.3fs  (", kind, preds[0].Strategy, preds[0].T)
		for i, pr := range preds {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s=%.3fs", pr.Strategy, pr.T)
		}
		fmt.Println(")")
	}
	// Ground-truth one suite plan end to end: compile allreduce over the
	// selected coordinator tree and run it phase-traced (a simulate.kind
	// span with per-phase events; the run counts under
	// planner.validations, so a warm store still reports
	// planner.probes=0).
	ar := once(threeLvl, coll.Uniform(coll.KindAllreduce, msgSize),
		grid.SimRun{Spec: &threeSpec, Trace: tc, Phases: true})
	fmt.Printf("one simulated allreduce at %d B per rank: %.2fs over %d traced phases\n",
		msgSize, ar.T, len(ar.Phases))

	if *storePath != "" {
		// SaveFile writes atomically (temp file + rename), so a crash
		// mid-save never leaves a torn store for the next run to load.
		if err := svc.Store().SaveFile(*storePath); err != nil {
			panic(err)
		}
		fmt.Printf("\ncharacterization store (%d records) written to %s\n", svc.Store().Len(), *storePath)
	}

	if tc != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			panic(err)
		}
		if err := tc.WriteNDJSON(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("\nobservability trace (%d events) written to %s\n", len(tc.Events()), *traceOut)
	}
}

// renderDiagnostics shows what the observability layer collected for
// the 3-level deployment when tracing is on: the probe-dispersion
// intervals behind the fitted factors, and the per-phase timing
// breakdown of one traced validation run (which also lands in the
// trace as simulate.phases and netsim.port events).
func renderDiagnostics(tc *obs.Collector, pl *grid.Planner, topo cluster.TopoNode, msgSize int) {
	if tc == nil {
		return
	}
	var labels []string
	var lo, mid, hi []float64
	for _, ps := range pl.ProbeStats {
		labels = append(labels, ps.Label())
		lo, mid, hi = append(lo, ps.Min), append(mid, ps.Median), append(hi, ps.Max)
	}
	fmt.Println()
	fmt.Print(textplot.Intervals(
		fmt.Sprintf("%s probe dispersion per seed (min—median—max, s)", topo.Name),
		labels, lo, mid, hi, 40))

	spec := pl.PlanSpec()
	res, err := grid.Run(topo, coll.Uniform(coll.KindAlltoall, msgSize), grid.HierGather,
		grid.SimRun{Trace: tc, Seed: 1, Warmup: 1, Reps: 1, Spec: &spec, Phases: true})
	if err != nil {
		panic(err)
	}
	var phLabels []string
	var phDurs []float64
	for _, ph := range res.Phases {
		phLabels = append(phLabels, ph.Label)
		phDurs = append(phDurs, ph.Dur())
	}
	fmt.Println()
	fmt.Print(textplot.HBar(
		fmt.Sprintf("%s hier-gather per-phase span (s, total %.2fs)", topo.Name, res.T),
		phLabels, phDurs, 40))
}
