package coll

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// randomSizeMatrix draws per-pair sizes with a heavy zero fraction and
// a wide spread, the adversarial shape for zero-message pruning.
func randomSizeMatrix(rng *rand.Rand, n int) SizeMatrix {
	sz := NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch rng.Intn(4) {
			case 0: // zero pair
			case 1:
				sz.Set(i, j, 1+rng.Intn(64))
			default:
				sz.Set(i, j, 1+rng.Intn(64<<10))
			}
		}
	}
	return sz
}

// TestHierTreeVPermutation checks the v-plan invariants across the
// fixed multi-level topologies with skewed and zero-heavy matrices.
func TestHierTreeVPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, spec := range treeSpecs() {
		n := len(specRanks(spec))
		mats := []SizeMatrix{
			UniformSizeMatrix(n, 2048),
			NewSizeMatrix(n), // all-zero: every message pruned
			randomSizeMatrix(rng, n),
		}
		for _, sz := range mats {
			for _, alg := range HierAlgorithms {
				verifyHierPlan(t, mustCompile(t, spec, Irregular(sz), alg))
			}
		}
	}
}

// TestHierTreeVCoordinatorFuzz fuzzes the full space at once: random
// topology trees, random rank placements, random coordinator
// assignments (non-lowest, multi-coordinator, inner tiers) and random
// zero-heavy size matrices — asserting exactly-once delivery of every
// pair's bytes and deadlock-free progress after zero-message pruning.
func TestHierTreeVCoordinatorFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var build func(depthLeft int) TreeSpec
	var leafCount int
	build = func(depthLeft int) TreeSpec {
		if depthLeft == 0 || rng.Intn(3) == 0 {
			leafCount++
			return TreeSpec{Ranks: []int{}}
		}
		k := rng.Intn(3) + 1
		var s TreeSpec
		for c := 0; c < k; c++ {
			s.Children = append(s.Children, build(depthLeft-1))
		}
		return s
	}
	fill := func(s *TreeSpec, perLeaf [][]int) {
		idx := 0
		var walk func(v *TreeSpec)
		walk = func(v *TreeSpec) {
			if len(v.Children) == 0 {
				v.Ranks = perLeaf[idx]
				idx++
				return
			}
			for i := range v.Children {
				walk(&v.Children[i])
			}
		}
		walk(s)
	}
	var assignCoords func(s *TreeSpec)
	assignCoords = func(s *TreeSpec) {
		for i := range s.Children {
			assignCoords(&s.Children[i])
		}
		if rng.Intn(2) == 0 {
			return
		}
		ranks := specRanks(*s)
		rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		c := rng.Intn(3) + 1
		if c > len(ranks) {
			c = len(ranks)
		}
		s.Coords = append([]int(nil), ranks[:c]...)
	}
	for iter := 0; iter < 60; iter++ {
		leafCount = 0
		spec := build(3)
		if leafCount == 0 {
			continue
		}
		n := leafCount + rng.Intn(10)
		perm := rng.Perm(n)
		perLeaf := make([][]int, leafCount)
		for l := 0; l < leafCount; l++ {
			perLeaf[l] = []int{perm[l]}
		}
		for i := leafCount; i < n; i++ {
			l := rng.Intn(leafCount)
			perLeaf[l] = append(perLeaf[l], perm[i])
		}
		fill(&spec, perLeaf)
		assignCoords(&spec)
		sz := randomSizeMatrix(rng, n)
		for _, alg := range HierAlgorithms {
			verifyHierPlan(t, mustCompile(t, spec, Irregular(sz), alg))
		}
	}
}

// TestAlltoallVOnGrid runs the irregular exchanges end-to-end on the
// mpi runtime — the flat kernels and both hierarchical plans — with a
// hotspot matrix and with a block-diagonal matrix whose cross-cluster
// entries are all zero (so the hierarchical plans prune every WAN
// message and must still complete, faster than one WAN latency).
func TestAlltoallVOnGrid(t *testing.T) {
	gp := cluster.Uniform("t-allv", cluster.WANTuned(cluster.GigabitEthernet()), 2, 3,
		cluster.DefaultWAN(10*sim.Millisecond))
	n := gp.TotalNodes()

	hotspot := UniformSizeMatrix(n, 10_000)
	for j := 1; j < n; j++ {
		hotspot.Set(0, j, 80_000)
	}
	localOnly := NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && i/3 == j/3 { // clusters are rank blocks of 3
				localOnly.Set(i, j, 10_000)
			}
		}
	}

	for _, alg := range HierAlgorithms {
		g, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		plan := mustCompile(t, flatSpec(g.ClusterOf), Irregular(hotspot), alg)
		w := mpi.NewWorld(g.Env)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
		if meas.Mean() <= 0.010 || meas.Mean() > 5 {
			t.Fatalf("%v hotspot: implausible completion %.4fs", alg, meas.Mean())
		}

		g2, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		plan2 := mustCompile(t, flatSpec(g2.ClusterOf), Irregular(localOnly), alg)
		w2 := mpi.NewWorld(g2.Env)
		meas2 := Measure(w2, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan2, nil) })
		// The makespan includes the pre-measurement barrier's exit skew
		// (its last dissemination hop crosses the 10 ms WAN), so "no WAN
		// exchange traffic" shows up as ~one latency, not zero — but well
		// below any plan that actually moves payload across the WAN
		// (aggregated rendezvous transfers pay several round trips).
		if meas2.Mean() <= 0 || meas2.Mean() >= 0.020 {
			t.Fatalf("%v local-only: completion %.4fs, want positive and within barrier skew of one WAN latency", alg, meas2.Mean())
		}
	}

	// Flat irregular exchange: Direct and PostAll run as asked, Bruck and
	// Pairwise (n = 6 resolves it to Direct anyway) fall back to Direct.
	for _, alg := range Algorithms {
		g, err := cluster.BuildGridTree(gp.Tree(), 7)
		if err != nil {
			t.Fatal(err)
		}
		want := Direct
		if alg == PostAll {
			want = PostAll
		}
		w := mpi.NewWorld(g.Env)
		effs := make([]Algorithm, n)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { effs[r.ID()] = alltoall(r, Irregular(hotspot), alg) })
		if meas.Mean() <= 0.010 || meas.Mean() > 5 {
			t.Fatalf("flat %v: implausible completion %.4fs", alg, meas.Mean())
		}
		for id, eff := range effs {
			if eff != want {
				t.Fatalf("flat %v: rank %d ran %v, want %v", alg, id, eff, want)
			}
		}
	}
}
