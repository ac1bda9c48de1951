package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// benchTopo is the 3-level deployment the grid workloads plan: a site
// of two campuses (3 and 2 WAN-tuned Gigabit nodes, 10 ms apart) next to
// one 3-node cluster reachable only over the 40 ms backbone. Uneven
// leaves make the probes lose packets on the WAN (hundreds of tail drops,
// a handful of RTOs per plan) while the probe count stays put across
// seeds; uniform 2-node leaves never drop, uniform 3-node leaves swing
// the probe count by seed.
func benchTopo() cluster.TopoNode {
	ge := cluster.WANTuned(cluster.GigabitEthernet())
	campus, backbone := cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond)
	return cluster.Group("bench3", backbone,
		cluster.Group("bench3-site", campus, cluster.Leaf(ge, 3), cluster.Leaf(ge, 2)),
		cluster.Leaf(ge, 3))
}

// gridOptions is the characterization the grid workloads run: the
// cheapest sweep the planner accepts (four fit sizes, two WAN sizes, one
// probe size), so that a cold plan is a sub-second op and a run holds
// enough of them for a steady median.
func gridOptions(cfg runConfig, mode sim.Mode, workers int) grid.Options {
	k := func(kib int) int { return int(math.Max(64, float64(kib<<10)*cfg.Scale)) }
	return grid.Options{
		FitN:           4,
		FitSizes:       []int{k(16), k(32), k(64), k(128)},
		WANSizes:       []int{k(2), k(128)},
		ProbeSizes:     []int{k(48)},
		Reps:           1,
		Seed:           cfg.Seed + 2,
		SimMode:        mode,
		FluidThreshold: k(32),
		Workers:        workers,
	}
}

// gridKinds are the collectives the cold journey plans.
var gridKinds = []coll.Kind{coll.KindAlltoall, coll.KindAllreduce}

// gridWorkload is the deployment-planning journey, cold: characterize
// the topology, then for each kind select coordinators, predict (the
// first call fits the kind's correction curve) and simulate every
// predicted strategy as ground truth.
func gridWorkload(name, why string, mode sim.Mode, workers func() int) *simSpec {
	return &simSpec{
		name: name, why: why,
		setup: func(cfg runConfig, tr *tracer) (func(*tracer) (opOut, error), map[string]float64, error) {
			topo := benchTopo() // set-up is topology construction: the cold build is the op
			if err := topo.Validate(); err != nil {
				return nil, nil, err
			}
			opt := gridOptions(cfg, mode, workers())
			valM := opt.ProbeSizes[0]
			return func(tr *tracer) (opOut, error) { return gridOp(topo, opt, valM, cfg.Seed, tr) }, nil, nil
		},
		rungs: func(cfg runConfig, last *opOut) (map[string]float64, error) {
			return gridRungs(benchTopo(), gridOptions(cfg, mode, workers()), last)
		},
		defining: func(layer map[string]float64) (string, bool) {
			return "the plan validates at least one strategy per kind", layer["grid.validations_per_op"] >= float64(len(gridKinds))
		},
	}
}

// checkPredictions enforces the planner's output contract: one
// prediction per candidate strategy of the kind, fastest first.
func checkPredictions(kind coll.Kind, preds []grid.Prediction) error {
	want := grid.StrategiesFor(kind)
	if len(preds) != len(want) {
		return fmt.Errorf("%v: %d predictions, want one per strategy (%d)", kind, len(preds), len(want))
	}
	seen := map[grid.Strategy]bool{}
	for i, p := range preds {
		if seen[p.Strategy] {
			return fmt.Errorf("%v: strategy %v predicted twice", kind, p.Strategy)
		}
		seen[p.Strategy] = true
		if !(p.T > 0) || math.IsInf(p.T, 0) {
			return fmt.Errorf("%v: prediction for %v is %v, want finite > 0", kind, p.Strategy, p.T)
		}
		if i > 0 && p.T < preds[i-1].T {
			return fmt.Errorf("%v: predictions not sorted fastest-first", kind)
		}
	}
	for _, s := range want {
		if !seen[s] {
			return fmt.Errorf("%v: no prediction for strategy %v", kind, s)
		}
	}
	return nil
}

// gridOp is one cold planning journey; valM is the size it plans and
// validates at.
func gridOp(topo cluster.TopoNode, opt grid.Options, valM int, seed int64, tr *tracer) (opOut, error) {
	var out opOut
	opt.Trace = tr.collector()

	sp := tr.start("grid.characterize")
	pl, err := grid.NewPlanner(topo, opt)
	characterizeS := sp.end()
	if err != nil {
		return out, fmt.Errorf("NewPlanner: %w", err)
	}
	probesAfterBuild := counter(tr.collector(), grid.CtrProbes)

	var planMsgs, planPhases, validations int
	errSum := map[grid.Strategy]float64{}
	errN := map[grid.Strategy]int{}
	var absErr float64
	for _, kind := range gridKinds {
		sp = tr.start("grid.select")
		choices, err := pl.SelectCoordinatorsKind(kind, valM)
		sp.end()
		if err != nil {
			return out, fmt.Errorf("SelectCoordinatorsKind(%v): %w", kind, err)
		}
		for _, c := range choices {
			out.counts = append(out.counts, uint64(c.Leaf), uint64(len(c.Ranks)))
			for _, r := range c.Ranks {
				out.counts = append(out.counts, uint64(r))
			}
		}

		sp = tr.start("grid.kind_fit")
		preds, err := pl.PredictKind(kind, valM)
		sp.end()
		if err != nil {
			return out, fmt.Errorf("PredictKind(%v): %w", kind, err)
		}
		if err := checkPredictions(kind, preds); err != nil {
			return out, err
		}

		if tr != nil {
			sp = tr.start("coll.plan")
			spec := pl.PlanSpec()
			for _, p := range preds {
				if alg, hier := grid.DescribeStrategy(p.Strategy); hier {
					plan := coll.PlanKindTree(spec, kind, alg)
					planMsgs += plan.NumMessages()
					planPhases = max(planPhases, plan.NumPhases())
				}
			}
			sp.end()
		}

		for _, p := range preds {
			sp = tr.start("grid.validate")
			t, err := grid.SimulateKind(topo, kind, p.Strategy, valM, seed, 0, 1)
			sp.end()
			if err != nil {
				return out, fmt.Errorf("SimulateKind(%v, %v): %w", kind, p.Strategy, err)
			}
			validations++
			out.simS = append(out.simS, t)
			out.preds = append(out.preds, p.T)
			out.counts = append(out.counts, uint64(p.Strategy))
			e := (p.T - t) / t * 100
			errSum[p.Strategy] += e
			errN[p.Strategy]++
			absErr += math.Abs(e)
		}
	}

	var simS float64
	for _, t := range out.simS {
		simS += t
	}
	meanErr := func(s grid.Strategy) float64 { return ratio(errSum[s], float64(errN[s])) }
	out.layer = map[string]float64{
		"sim.simulated_s_per_op":    simS,
		"grid.validations_per_op":   float64(validations),
		"model.abs_err_pct":         absErr / float64(validations),
		"model.err_pct_flat":        meanErr(grid.FlatDirect),
		"model.err_pct_hier_gather": meanErr(grid.HierGather),
		"model.err_pct_hier_direct": meanErr(grid.HierDirect),
	}
	if tr != nil {
		c := tr.collector()
		probes := float64(counter(c, grid.CtrProbes))
		// WAN bytes either cross the routers packet by packet
		// (netsim.bytes.wan) or are priced as fluid flows.
		fluidBytes := float64(counter(c, netsim.CtrFluidBytes))
		wanBytes := float64(counter(c, netsim.CtrWANBytes))
		l := out.layer
		l["sim.events_per_op"] = float64(counter(c, grid.CtrSimEvents))
		l["netsim.pkts_forwarded_per_op"] = float64(counter(c, netsim.CtrForwarded))
		l["netsim.drops_per_op"] = float64(counter(c, netsim.CtrDropped))
		l["netsim.drop_ratio"] = ratio(l["netsim.drops_per_op"], l["netsim.drops_per_op"]+l["netsim.pkts_forwarded_per_op"])
		l["netsim.wan_mb_per_op"] = wanBytes / 1e6
		l["netsim.fluid_flows_per_op"] = float64(counter(c, netsim.CtrFluidFlows))
		l["netsim.fluid_byte_share"] = ratio(fluidBytes, fluidBytes+wanBytes)
		l["transport.retransmits_per_op"] = float64(counter(c, grid.CtrRetransmits))
		l["transport.timeouts_per_op"] = float64(counter(c, grid.CtrTimeouts))
		l["transport.retransmit_ratio"] = ratio(l["transport.retransmits_per_op"], l["netsim.pkts_forwarded_per_op"])
		l["grid.probes_per_op"] = probes
		l["grid.characterize_s"] = characterizeS
		l["grid.probe_ms_mean"] = ratio(characterizeS*1e3, float64(probesAfterBuild))
		l["grid.select_ms"] = tr.total(tr.op, "grid.select") * 1e3
		l["grid.kind_fit_s"] = tr.total(tr.op, "grid.kind_fit")
		l["grid.validate_s"] = tr.total(tr.op, "grid.validate")
		l["coll.plan_ms"] = tr.total(tr.op, "coll.plan") * 1e3
		l["coll.plan_msgs"] = float64(planMsgs)
		l["coll.plan_phases"] = float64(planPhases)
	}
	return out, nil
}

// gridRungs measures, outside any op: the bare event core at the op's
// event count, the cost of one prediction of each family on a built
// planner with no collector attached, and what the probe pool buys.
func gridRungs(topo cluster.TopoNode, opt grid.Options, last *opOut) (map[string]float64, error) {
	out := map[string]float64{}
	n := topo.TotalNodes()
	out["sim.rung_ns_per_event"], out["sim.rung_allocs_per_event"] = simRung(uint64(last.layer["sim.events_per_op"]), n*n)
	out["sim.rung_handoff_ns"] = handoffRung()

	// The traced op built the planner with the workload's own worker
	// count; one more build with the other count gives the ratio.
	other := opt
	other.Workers = 1
	if opt.Workers == 1 {
		other.Workers = runtime.NumCPU()
	}
	t0 := time.Now()
	pl, err := grid.NewPlanner(topo, other)
	if err != nil {
		return out, err
	}
	seqS, parS := time.Since(t0).Seconds(), last.layer["grid.characterize_s"]
	if opt.Workers == 1 {
		seqS, parS = parS, seqS
	}
	out["grid.pool_speedup"] = ratio(seqS, parS)

	valM := opt.ProbeSizes[0]
	if _, err := pl.PredictKind(coll.KindAllreduce, valM); err != nil { // fit once, outside the timing
		return out, err
	}
	sz := coll.SizeMatrixFromRows(cluster.BlockDiagonalBytes(topo, 2*valM, valM/4))
	const calls = 200
	med := func(fn func()) float64 {
		us := make([]float64, calls)
		for i := range us {
			t0 := time.Now()
			fn()
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return median(us)
	}
	out["model.predict_us"] = med(func() { pl.Predict(valM) })
	out["model.predictv_us"] = med(func() { pl.PredictV(sz) })
	out["model.predictkind_us"] = med(func() { pl.PredictKind(coll.KindAllreduce, valM) })
	return out, nil
}
