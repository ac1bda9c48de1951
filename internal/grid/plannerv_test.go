package grid

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/sim"
)

// rankingMatchesSimulationV is rankingMatchesSimulation's irregular
// form: for every named size matrix, the planner's PredictV order must
// match packet-level All-to-Allv simulation, decisive pairs only
// (simulated times within tieFrac are statistical ties).
func rankingMatchesSimulationV(t *testing.T, topo cluster.TopoNode, pl *Planner, mats map[string]coll.SizeMatrix, tieFrac float64) {
	t.Helper()
	for name, sz := range mats {
		preds := pl.PredictV(sz)
		if len(preds) != len(Strategies) {
			t.Fatalf("%s: %d predictions, want %d", name, len(preds), len(Strategies))
		}
		predT := map[Strategy]float64{}
		for _, pr := range preds {
			predT[pr.Strategy] = pr.T
		}
		simT := map[Strategy]float64{}
		for _, s := range Strategies {
			mean := 0.0
			for _, seed := range []int64{7, 19} {
				spec := pl.PlanSpec()
				st := simulate(t, topo, coll.Irregular(sz), s, &spec, seed, 1, 2)
				if st <= 0 {
					t.Fatalf("%s %v: nonpositive simulated time", name, s)
				}
				mean += st
			}
			simT[s] = mean / 2
		}
		for _, a := range Strategies {
			for _, b := range Strategies {
				sa, sb := simT[a], simT[b]
				if sa >= sb || sb-sa <= tieFrac*sb {
					continue
				}
				if predT[a] >= predT[b] {
					t.Fatalf("%s: simulation has %v (%.3fs) decisively before %v (%.3fs), planner predicts %.3fs vs %.3fs",
						name, a, sa, b, sb, predT[a], predT[b])
				}
			}
		}
		best := pl.BestV(sz).Strategy
		simBest := Strategies[0]
		for _, s := range Strategies {
			if simT[s] < simT[simBest] {
				simBest = s
			}
		}
		if best != simBest && simT[best]-simT[simBest] > tieFrac*simT[best] {
			t.Fatalf("%s: BestV() = %v (sim %.3fs), simulation says %v (%.3fs)",
				name, best, simT[best], simBest, simT[simBest])
		}
	}
}

// skewedMatrices wraps the canonical cluster workloads for a topology.
func skewedMatrices(topo cluster.TopoNode) map[string]coll.SizeMatrix {
	out := map[string]coll.SizeMatrix{}
	for name, rows := range cluster.SkewedWorkloads(topo) {
		out[name] = coll.SizeMatrixFromRows(rows)
	}
	return out
}

// TestPlannerVRankingMatchesSimulation is the GR4 acceptance: on two
// topologies (two-level and 3-level), the planner's irregular-exchange
// ranking must agree with packet-level simulation on both canonical
// skewed matrices (hotspot-row and block-diagonal).
func TestPlannerVRankingMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo cluster.TopoNode
	}{
		{
			name: "two-level",
			topo: cluster.Uniform("acceptv-2lvl", wanTunedGE(), 2, 4, cluster.DefaultWAN(20*sim.Millisecond)).Tree(),
		},
		{
			name: "three-level",
			topo: cluster.ThreeLevel("acceptv-3lvl", wanTunedGE(), 2, 2, 2,
				cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond)),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewPlanner(tc.topo, Options{FitN: 6, Reps: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			rankingMatchesSimulationV(t, tc.topo, pl, skewedMatrices(tc.topo), 0.08)
		})
	}
}

// TestPredictVUniformMatchesPredict pins the planner-level fast path:
// a uniform matrix must reproduce Predict(m) bit-identically, order
// included.
func TestPredictVUniformMatchesPredict(t *testing.T) {
	pl, err := NewPlanner(testTopo(), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{16 << 10, 64 << 10} {
		uni := pl.Predict(m)
		v := pl.PredictV(coll.UniformSizeMatrix(pl.Model.TotalNodes(), m))
		for i := range uni {
			if uni[i] != v[i] {
				t.Fatalf("m=%d: PredictV[%d] = %+v, want bit-equal %+v", m, i, v[i], uni[i])
			}
		}
	}
}

// TestSelectCoordinatorsVUniformEqualsUniformSelection: fed a uniform
// matrix, the v-selection must make exactly the uniform selection's
// choices (the shared core evaluated through the v-model's fast path).
func TestSelectCoordinatorsVUniformEqualsUniformSelection(t *testing.T) {
	m := 64 << 10
	p1, err := NewPlanner(heteroTestTopo(4), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanner(heteroTestTopo(4), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	uni, err := p1.SelectCoordinators(m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p2.SelectCoordinatorsV(coll.UniformSizeMatrix(p2.Model.TotalNodes(), m))
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != len(v) {
		t.Fatalf("choice counts differ: %d vs %d", len(uni), len(v))
	}
	for l := range uni {
		a, b := uni[l], v[l]
		if a.Default != b.Default || a.Rate != b.Rate ||
			len(a.Local) != len(b.Local) {
			t.Fatalf("leaf %d: uniform selection %+v, v-selection %+v", l, a, b)
		}
		for i := range a.Local {
			if a.Local[i] != b.Local[i] || a.Ranks[i] != b.Ranks[i] {
				t.Fatalf("leaf %d: uniform selection %+v, v-selection %+v", l, a, b)
			}
		}
	}
}

// TestSelectCoordinatorsVSteersHotspotRelay: on the heterogeneous grid
// (lowest rank of each cluster on a degraded port) with a hotspot
// workload, the v-selection must still steer every non-default leaf off
// the degraded node, and the selected plan must beat the lowest-rank
// default in v-simulation.
func TestSelectCoordinatorsVSteersHotspotRelay(t *testing.T) {
	topo := heteroTestTopo(4)
	pl, err := NewPlanner(topo, cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	sz := coll.SizeMatrixFromRows(cluster.HotspotRowBytes(topo, 32<<10, 1, 8))
	choices, err := pl.SelectCoordinatorsV(sz)
	if err != nil {
		t.Fatal(err)
	}
	nonDefault := 0
	for _, c := range choices {
		if c.Default {
			continue
		}
		nonDefault++
		for _, i := range c.Local {
			if i == 0 {
				t.Fatalf("v-selection kept the degraded node 0 in %v", c)
			}
		}
	}
	if nonDefault == 0 {
		t.Fatalf("v-selection kept the lowest-rank default on a heterogeneous grid: %v", choices)
	}
	defT, selT := 0.0, 0.0
	for _, seed := range []int64{7, 19} {
		spec := pl.PlanSpec()
		d := simulate(t, topo, coll.Irregular(sz), HierGather, nil, seed, 1, 2)
		s := simulate(t, topo, coll.Irregular(sz), HierGather, &spec, seed, 1, 2)
		defT += d / 2
		selT += s / 2
	}
	if selT >= defT {
		t.Fatalf("v-selected coordinators (%.3fs) did not beat the lowest-rank default (%.3fs)", selT, defT)
	}
}
