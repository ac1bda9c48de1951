package grid

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/sim"
)

// wanTunedGE is the Gigabit Ethernet profile with long-fat-pipe tuning.
func wanTunedGE() cluster.Profile {
	return cluster.WANTuned(cluster.GigabitEthernet())
}

// testTopo is the two-level scenario: two clusters over a ≥10 ms WAN —
// the PR 1 acceptance grid, now expressed as a depth-1 tree.
func testTopo() cluster.TopoNode {
	return cluster.Uniform("test-grid", wanTunedGE(), 2, 3, cluster.DefaultWAN(20*sim.Millisecond)).Tree()
}

// cheapOptions keeps characterization affordable in CI: single-point
// probe fits (the scalar-compatible fast path) unless a test overrides
// ProbeSizes to exercise curve fitting.
func cheapOptions() Options {
	return Options{
		FitN:       6,
		FitSizes:   []int{16 << 10, 64 << 10, 128 << 10, 256 << 10},
		WANSizes:   []int{2 << 10, 32 << 10, 128 << 10, 512 << 10},
		ProbeSizes: []int{64 << 10},
		Reps:       1,
		Seed:       3,
	}
}

func TestPlannerCharacterization(t *testing.T) {
	opt := cheapOptions()
	opt.ProbeSizes = []int{8 << 10, 64 << 10, 256 << 10} // the production default
	pl, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	wan := pl.Model.Root.Wan
	if len(wan.Curve) != 4 {
		t.Fatalf("WAN curve has %d points, want 4", len(wan.Curve))
	}
	// One-way start-up must reflect the 20 ms WAN propagation.
	if wan.Alpha() < 0.020 {
		t.Fatalf("WAN α = %v, below the 20 ms propagation delay", wan.Alpha())
	}
	// One fitted γ_wan point per probe size, each clamped ≥ 1.
	if got := len(wan.Gamma.Points); got != 3 {
		t.Fatalf("fitted γ_wan curve has %d points, want one per probe size (3)", got)
	}
	for _, p := range wan.Gamma.Points {
		if p.Factor < 1 {
			t.Fatalf("fitted γ_wan(%d) = %v, must be ≥ 1", p.Bytes, p.Factor)
		}
	}
	for _, c := range [][]int{{8 << 10, 64 << 10}, {64 << 10, 256 << 10}} {
		lo, hi := wan.Gamma.At(c[0]), wan.Gamma.At(c[1])
		mid := wan.Gamma.At((c[0] + c[1]) / 2)
		if mid < min(lo, hi) || mid > max(lo, hi) {
			t.Fatalf("γ_wan interpolation at %d outside its bracket [%v, %v]: %v",
				(c[0]+c[1])/2, lo, hi, mid)
		}
	}
	if got := pl.Model.TotalNodes(); got != 6 {
		t.Fatalf("model covers %d nodes, want 6", got)
	}
	leaves := pl.Model.Leaves()
	for c, lf := range leaves {
		if lf.LAN.Gamma < 1 {
			t.Fatalf("cluster %d signature γ = %v < 1", c, lf.LAN.Gamma)
		}
	}
	// Uniform grids characterize the member profile once; both entries
	// must be identical.
	if leaves[0].LAN != leaves[1].LAN {
		t.Fatal("uniform grid re-characterized an identical member profile")
	}
	// The planner's leaf characterization is FitLeaf on PostAll.
	lf, err := FitLeaf(wanTunedGE(), coll.PostAll, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Hockney != pl.Hockney[0] || lf.Signature != leaves[0].LAN {
		t.Fatalf("FitLeaf gave %s / %s, planner holds %s / %s",
			lf.Hockney, lf.Signature, pl.Hockney[0], leaves[0].LAN)
	}
}

// TestFitLeafReadsEagerThreshold: the profile's eager threshold reaches
// the Section 7 fit with no option of its own. Myrinet as built fits
// γ 2.3103 over sigfit's schedule; with every size sent eagerly the
// contention ratio all but vanishes — most of the fitted γ is the
// rendezvous round trip, not the network.
func TestFitLeafReadsEagerThreshold(t *testing.T) {
	opt := Options{FitN: 8, FitSizes: []int{16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
		Reps: 2, Seed: 1}
	gamma := func(eager int) float64 {
		p := cluster.Myrinet()
		p.EagerThreshold = eager
		lf, err := FitLeaf(p, coll.PostAll, opt)
		if err != nil {
			t.Fatal(err)
		}
		return lf.Signature.Gamma
	}
	if got := gamma(0); math.Abs(got-2.3103) > 5e-5 {
		t.Fatalf("as-built γ = %.4f, want 2.3103", got)
	}
	if got := gamma(4 << 20); got >= 1.05 {
		t.Fatalf("all-eager γ = %.4f, want < 1.05", got)
	}
}

// TestFitLeafWorkersInvariant: FitLeaf fans its sweep out over the
// worker pool, and the fit must not depend on how.
func TestFitLeafWorkersInvariant(t *testing.T) {
	fit := func(workers int) LeafFit {
		opt := cheapOptions()
		opt.Workers = workers
		lf, err := FitLeaf(wanTunedGE(), coll.PostAll, opt)
		if err != nil {
			t.Fatal(err)
		}
		return lf
	}
	if seq, par := fit(1), fit(4); !reflect.DeepEqual(seq, par) {
		t.Fatalf("4-worker fit differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestPlanner3LevelCharacterization: on a 3-level tree every tier gets
// its own curve, and the continental tier's start-up must exceed the
// campus tier's.
func TestPlanner3LevelCharacterization(t *testing.T) {
	topo := cluster.ThreeLevel("char3", wanTunedGE(), 2, 2, 2,
		cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(50*sim.Millisecond))
	pl, err := NewPlanner(topo, cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := pl.Model.Root
	if root.Height() != 2 {
		t.Fatalf("model height %d, want 2", root.Height())
	}
	if root.Wan.Alpha() < 0.050 {
		t.Fatalf("continental α = %v, below the 50 ms propagation delay", root.Wan.Alpha())
	}
	for i, nation := range root.Children {
		if nation.Wan.Alpha() < 0.010 {
			t.Fatalf("nation %d campus α = %v, below the 10 ms propagation delay", i, nation.Wan.Alpha())
		}
		if nation.Wan.Alpha() >= root.Wan.Alpha() {
			t.Fatalf("nation %d campus α %v not below continental α %v",
				i, nation.Wan.Alpha(), root.Wan.Alpha())
		}
		if nation.Wan.Gamma.At(64<<10) < 1 {
			t.Fatalf("nation %d γ_wan = %v, must be ≥ 1", i, nation.Wan.Gamma)
		}
	}
	// Uniform nations: the tier fit must be shared, not re-run.
	if !reflect.DeepEqual(root.Children[0].Wan.Gamma, root.Children[1].Wan.Gamma) {
		t.Fatal("identical nation subtrees fitted different γ_wan")
	}
}

// rankingMatchesSimulation asserts the planner's predicted strategy
// order equals packet-level simulation's at every message size
// (simulated times averaged over seeds, since single lossy-TCP runs are
// RTO-noisy). Strategy pairs whose simulated times lie within tieFrac
// of each other are statistical ties and exempt from the order check —
// a coin-flip between near-equal strategies is not a planner error.
func rankingMatchesSimulation(t *testing.T, topo cluster.TopoNode, pl *Planner, msgs []int, tieFrac float64) {
	t.Helper()
	for _, m := range msgs {
		preds := pl.Predict(m)
		if len(preds) != len(Strategies) {
			t.Fatalf("m=%d: %d predictions, want %d", m, len(preds), len(Strategies))
		}
		predT := map[Strategy]float64{}
		for _, pr := range preds {
			predT[pr.Strategy] = pr.T
		}
		simT := map[Strategy]float64{}
		for _, s := range Strategies {
			mean := 0.0
			for _, seed := range []int64{7, 19} {
				// Hierarchical strategies run the planner's chosen plan
				// (PlanSpec is the lowest-rank default until a selection
				// is made), so predictions and ground truth agree on
				// what executes.
				spec := pl.PlanSpec()
				st := simulate(t, topo, coll.Uniform(coll.KindAlltoall, m), s, &spec, seed, 1, 2)
				if st <= 0 {
					t.Fatalf("m=%d %v: nonpositive simulated time", m, s)
				}
				mean += st
			}
			simT[s] = mean / 2
		}
		for _, a := range Strategies {
			for _, b := range Strategies {
				sa, sb := simT[a], simT[b]
				if sa >= sb || sb-sa <= tieFrac*sb {
					continue // not a decisively ordered pair
				}
				if predT[a] >= predT[b] {
					t.Fatalf("m=%d: simulation has %v (%.3fs) decisively before %v (%.3fs), planner predicts %.3fs vs %.3fs",
						m, a, sa, b, sb, predT[a], predT[b])
				}
			}
		}
		// The predicted best must be the simulated best, or tied with it.
		best := pl.Best(m).Strategy
		simBest := Strategies[0]
		for _, s := range Strategies {
			if simT[s] < simT[simBest] {
				simBest = s
			}
		}
		if best != simBest && simT[best]-simT[simBest] > tieFrac*simT[best] {
			t.Fatalf("m=%d: Best() = %v (sim %.3fs), simulation says %v (%.3fs)",
				m, best, simT[best], simBest, simT[simBest])
		}
	}
}

// TestPlannerRankingMatchesSimulation is the two-level acceptance test
// (and the depth-2 regression for the recursive rewrite): across a
// message-size sweep on a two-cluster grid over a 20 ms WAN, the
// planner's predicted completion times must rank the three strategies
// in the same order as packet-level simulation.
func TestPlannerRankingMatchesSimulation(t *testing.T) {
	topo := cluster.Uniform("accept-grid", wanTunedGE(), 2, 6, cluster.DefaultWAN(20*sim.Millisecond)).Tree()
	pl, err := NewPlanner(topo, Options{FitN: 8, Reps: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rankingMatchesSimulation(t, topo, pl, []int{16 << 10, 48 << 10}, 0)
}

// TestPlannerRankingMatchesSimulation3Level extends the acceptance to
// two 3-level (campus → national → continental) topologies over
// different member networks. Message sizes bracket the calibration
// probes; sizes deep in the RTO-noisy small-message regime (where
// completion is dominated by retransmission-timeout chaos the
// per-level curves cannot see — the known limitation GR1 documents for
// two-level grids) are not acceptance material, and neither are
// (topology, size) points whose strategy order is itself a seed
// lottery: on the Fast Ethernet grid at 64 KiB the hierarchical
// completion times range 2.3–9.1 s across seeds with overlapping
// supports for both strategies (7-seed means within 5%), so a 2-seed
// ground truth there validates noise — 96–128 KiB, where the
// distributions are tight, is the regime the model claims for FE.
func TestPlannerRankingMatchesSimulation3Level(t *testing.T) {
	fe := cluster.WANTuned(cluster.FastEthernet())
	for _, tc := range []struct {
		name string
		topo cluster.TopoNode
		msgs []int
	}{
		{
			name: "ge-uniform",
			topo: cluster.ThreeLevel("accept3-ge", wanTunedGE(), 2, 2, 3,
				cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond)),
			msgs: []int{48 << 10, 64 << 10},
		},
		{
			name: "fe-uniform",
			topo: cluster.ThreeLevel("accept3-fe", fe, 2, 2, 4,
				cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(30*sim.Millisecond)),
			msgs: []int{96 << 10, 128 << 10},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewPlanner(tc.topo, Options{FitN: 6, Reps: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			rankingMatchesSimulation(t, tc.topo, pl, tc.msgs, 0.08)
		})
	}
}

func TestSimulateRejectsUnknownStrategy(t *testing.T) {
	if _, err := Run(testTopo(), coll.Uniform(coll.KindAlltoall, 1024), Strategy(99), SimRun{Seed: 1, Reps: 1}); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestPlannerRejectsSingleCluster(t *testing.T) {
	solo := cluster.Leaf(wanTunedGE(), 4)
	if _, err := NewPlanner(solo, cheapOptions()); err == nil {
		t.Fatal("single-cluster topology must be rejected with an error, not a panic")
	}
	oneChild := cluster.Group("one", cluster.DefaultWAN(10*sim.Millisecond),
		cluster.Leaf(wanTunedGE(), 4))
	if _, err := NewPlanner(oneChild, cheapOptions()); err == nil {
		t.Fatal("single-child tier must be rejected with an error, not a panic")
	}
}

// heteroTestTopo is a small heterogeneous two-cluster grid: each
// cluster's lowest rank sits on a 100 Mb port while the rest have full
// Gigabit headroom.
func heteroTestTopo(nodes int) cluster.TopoNode {
	p := wanTunedGE()
	p.Name = "ge-mixed-nics"
	p.NodeLinkRates = []int64{12_500_000}
	return cluster.Uniform("hetero-test", p, 2, nodes, cluster.DefaultWAN(20*sim.Millisecond)).Tree()
}

// TestPlannerHeadroomProbe: characterization measures per-node NIC
// rates back from the built network — the degraded rank 0 probes
// markedly below its full-rate peers, and homogeneous peers probe
// alike.
func TestPlannerHeadroomProbe(t *testing.T) {
	pl, err := NewPlanner(heteroTestTopo(4), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Headroom) != 2 {
		t.Fatalf("headroom for %d leaves, want 2", len(pl.Headroom))
	}
	for l, rates := range pl.Headroom {
		if len(rates) != 4 {
			t.Fatalf("leaf %d: %d node rates, want 4", l, len(rates))
		}
		for i, r := range rates {
			if r <= 0 {
				t.Fatalf("leaf %d node %d: nonpositive probed rate %v", l, i, r)
			}
		}
		// Node 0 is on a 100 Mb port; node 1 has Gigabit headroom.
		if rates[0]*4 > rates[1] {
			t.Fatalf("leaf %d: degraded node 0 (%.0f B/s) not well below node 1 (%.0f B/s)",
				l, rates[0], rates[1])
		}
		// The full-rate nodes must probe within noise of each other.
		if rates[1] > 1.5*rates[2] || rates[2] > 1.5*rates[1] {
			t.Fatalf("leaf %d: homogeneous nodes probed apart: %v", l, rates)
		}
	}
}

// TestPlannerHomogeneousSelectionKeepsDefault pins the regression the
// ISSUE demands: on a homogeneous grid the selection logic provably
// changes nothing — every leaf keeps the lowest-rank default, the
// model fields stay zero, and predictions are bit-identical to the
// pre-selection planner.
func TestPlannerHomogeneousSelectionKeepsDefault(t *testing.T) {
	pl, err := NewPlanner(testTopo(), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := 64 << 10
	before := pl.Predict(m)
	choices, err := pl.SelectCoordinators(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 2 {
		t.Fatalf("%d choices, want 2", len(choices))
	}
	for _, c := range choices {
		if !c.Default {
			t.Fatalf("homogeneous grid selected a non-default coordinator: %v", c)
		}
	}
	for l, lf := range pl.Model.Leaves() {
		if lf.NumCoords != 0 || lf.CoordBeta != 0 {
			t.Fatalf("leaf %d model touched by default selection: C=%d β=%v", l, lf.NumCoords, lf.CoordBeta)
		}
	}
	after := pl.Predict(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("default selection changed predictions: %v -> %v", before[i], after[i])
		}
	}
	// PlanSpec still compiles to the default lowest-rank plan.
	plan, err := coll.Compile(pl.PlanSpec(), coll.Uniform(coll.KindAlltoall, m), coll.HierGather)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < plan.Tree.NumLeaves(); l++ {
		coords := plan.Tree.Coordinators(l)
		members := plan.Tree.LeafMembers(l)
		if len(coords) != 1 || coords[0] != members[0] {
			t.Fatalf("leaf %d: default PlanSpec coordinators = %v, want lowest rank %d", l, coords, members[0])
		}
	}
}

// TestPlannerSelectsCoordinatorOnHeteroGrid is the tentpole acceptance
// test on a two-cluster heterogeneous grid: selection must steer every
// leaf's relay off the degraded rank 0 port, and the chosen plan must
// beat the lowest-rank default in packet-level simulation.
func TestPlannerSelectsCoordinatorOnHeteroGrid(t *testing.T) {
	topo := heteroTestTopo(4)
	pl, err := NewPlanner(topo, cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := 64 << 10
	choices, err := pl.SelectCoordinators(m)
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
				t.Fatalf("selection kept the degraded node 0 in %v", c)
			}
		}
	}
	if nonDefault == 0 {
		t.Fatalf("selection kept the lowest-rank default on a heterogeneous grid: %v", choices)
	}

	// Ground truth: the selected hier-gather plan must beat the
	// lowest-rank default (averaged over seeds; lossy TCP is noisy).
	defT, selT := 0.0, 0.0
	for _, seed := range []int64{7, 19} {
		w, spec := coll.Uniform(coll.KindAlltoall, m), pl.PlanSpec()
		d := simulate(t, topo, w, HierGather, nil, seed, 1, 2)
		s := simulate(t, topo, w, HierGather, &spec, seed, 1, 2)
		defT += d / 2
		selT += s / 2
	}
	if selT >= defT {
		t.Fatalf("selected coordinators (%.3fs) did not beat the lowest-rank default (%.3fs)", selT, defT)
	}
}

// TestPlannerHeteroCanonicalAcceptance is the acceptance test on the
// canonical heterogeneous grid (hetero-3lvl): the planner must select a
// non-lowest-rank coordinator for every campus, the selected
// hier-gather plan must beat the lowest-rank default in packet-level
// simulation on every seed, and the predicted strategy ranking (with
// the selection applied) must match simulation order.
func TestPlannerHeteroCanonicalAcceptance(t *testing.T) {
	topo, err := cluster.TreeByName("hetero-3lvl")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(topo, Options{FitN: 6, Reps: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 48 KiB sits in the model's claimed bracket; larger sizes push the
	// continental exchange many MB past the measured curve, where
	// completion is RTO-chaotic (docs/MODEL.md §6).
	m := 48 << 10
	choices, err := pl.SelectCoordinators(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 4 {
		t.Fatalf("%d choices, want 4", len(choices))
	}
	for _, c := range choices {
		if c.Default {
			t.Fatalf("campus %d kept the degraded lowest-rank default: %v", c.Leaf, c)
		}
		for _, i := range c.Local {
			if i == 0 {
				t.Fatalf("campus %d selection kept the degraded node 0: %v", c.Leaf, c)
			}
		}
	}
	// The plan spec must route every tier — leaves AND the inner nation
	// tiers, whose default relay is the same degraded lowest rank — off
	// the 100 Mb ports (ranks 0, 4, 8, 12).
	degraded := map[int]bool{0: true, 4: true, 8: true, 12: true}
	var walkSpec func(s coll.TreeSpec, depth int)
	walkSpec = func(s coll.TreeSpec, depth int) {
		if depth > 0 && len(s.Children) > 0 && len(s.Coords) == 0 {
			t.Fatalf("inner tier at depth %d left on its degraded default relay", depth)
		}
		for _, cr := range s.Coords {
			if degraded[cr] {
				t.Fatalf("plan spec relays through degraded rank %d", cr)
			}
		}
		for _, c := range s.Children {
			walkSpec(c, depth+1)
		}
	}
	walkSpec(pl.PlanSpec(), 0)

	for _, seed := range []int64{7, 19} {
		w, spec := coll.Uniform(coll.KindAlltoall, m), pl.PlanSpec()
		defT := simulate(t, topo, w, HierGather, nil, seed, 1, 2)
		selT := simulate(t, topo, w, HierGather, &spec, seed, 1, 2)
		if selT >= defT {
			t.Fatalf("seed %d: selected coordinators (%.3fs) did not beat the lowest-rank default (%.3fs)",
				seed, selT, defT)
		}
	}
	rankingMatchesSimulation(t, topo, pl, []int{m}, 0.08)
}

// TestPlannerSelectsMultiCoordinatorForWideLeaf: a wide Fast Ethernet
// cluster next to two small Gigabit ones saturates any single
// coordinator port with its gather incast, so selection must split the
// wide leaf's relay across two coordinators (C=2) while the narrow
// leaves keep their lowest-rank default — and the split plan must beat
// the default in packet-level simulation.
func TestPlannerSelectsMultiCoordinatorForWideLeaf(t *testing.T) {
	fe := cluster.WANTuned(cluster.FastEthernet())
	gp := cluster.GridProfile{
		Name: "wide-mixed",
		Members: []cluster.GridMember{
			{Profile: fe, Nodes: 8},
			{Profile: wanTunedGE(), Nodes: 3},
			{Profile: wanTunedGE(), Nodes: 3},
		},
		WAN: cluster.DefaultWAN(20 * sim.Millisecond),
	}
	topo := gp.Tree()
	pl, err := NewPlanner(topo, cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := 64 << 10
	choices, err := pl.SelectCoordinators(m)
	if err != nil {
		t.Fatal(err)
	}
	wide := choices[0]
	if wide.Default || len(wide.Local) != 2 {
		t.Fatalf("wide leaf not split across two coordinators: %v", wide)
	}
	for _, c := range choices[1:] {
		if !c.Default {
			t.Fatalf("narrow leaf %d unexpectedly changed coordinators: %v", c.Leaf, c)
		}
	}
	for _, seed := range []int64{7, 19} {
		w, spec := coll.Uniform(coll.KindAlltoall, m), pl.PlanSpec()
		defT := simulate(t, topo, w, HierGather, nil, seed, 1, 2)
		selT := simulate(t, topo, w, HierGather, &spec, seed, 1, 2)
		if selT >= defT {
			t.Fatalf("seed %d: split coordinators (%.3fs) did not beat the single default (%.3fs)",
				seed, selT, defT)
		}
	}
}
