package coll

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// verifyHierPlanV executes a size-matrix-bound plan symbolically, the
// way RunPlan runs it: messages whose bound payload is
// zero do not exist (both endpoints skip them), every other message
// must satisfy rendezvous-safe phase ordering. It checks:
//
//  1. payload binding: each message's bound bytes equal the sum of its
//     blocks' matrix entries, and a zero-payload message carries only
//     zero-byte blocks (skipping it can never lose data);
//  2. progress: every rank finishes all phases with the zero messages
//     removed (pruning only relaxes dependencies, but this proves it);
//  3. causality: a rank holds every nonzero block it sends;
//  4. exactly-once byte delivery: each (src, dst) pair's bytes arrive
//     at dst in exactly one message, and afterwards every rank holds
//     every nonzero block addressed to it.
func verifyHierPlanV(t *testing.T, plan *HierPlan, sz SizeMatrix) {
	t.Helper()
	if plan.vbytes == nil || plan.Kind != KindAlltoallv {
		t.Fatal("plan has no bound size matrix")
	}
	n := plan.Place.NumRanks()

	// 1. Payload binding.
	for i, m := range plan.msgs {
		want := 0
		for _, blk := range m.blocks {
			want += sz.At(blk.Src, blk.Dst)
		}
		if plan.vbytes[i] != want {
			t.Fatalf("%v: message %d->%d bound to %d bytes, blocks sum to %d",
				plan.Alg, m.from, m.to, plan.vbytes[i], want)
		}
		if plan.vbytes[i] == 0 {
			for _, blk := range m.blocks {
				if sz.At(blk.Src, blk.Dst) != 0 {
					t.Fatalf("%v: zero-payload message %d->%d carries nonzero block %+v",
						plan.Alg, m.from, m.to, blk)
				}
			}
		}
	}

	// The live (executed) message set.
	type liveMsg struct{ *hierMsg }
	var live []liveMsg
	for i, m := range plan.msgs {
		if plan.vbytes[i] > 0 {
			live = append(live, liveMsg{m})
		}
	}

	hold := make([]map[Block]bool, n)
	for i := 0; i < n; i++ {
		hold[i] = map[Block]bool{}
		for j := 0; j < n; j++ {
			if j != i {
				hold[i][Block{Src: i, Dst: j}] = true
			}
		}
	}
	progress := make([]int, n)
	checkSendsHeld := func(r, ph int) {
		for _, m := range live {
			if m.from != r || m.fromPhase != ph {
				continue
			}
			for _, blk := range m.blocks {
				if sz.At(blk.Src, blk.Dst) > 0 && !hold[r][blk] {
					t.Fatalf("%v: rank %d posts nonzero block %+v in phase %d without holding it",
						plan.Alg, r, blk, ph)
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		checkSendsHeld(r, 0)
	}
	for {
		advanced := false
		for r := 0; r < n; r++ {
			ph := progress[r]
			if ph >= len(plan.perRank[r]) {
				continue
			}
			ready := true
			for _, m := range live {
				if m.to == r && m.toPhase == ph && progress[m.from] < m.fromPhase {
					ready = false
					break
				}
				if m.from == r && m.fromPhase == ph && progress[m.to] < m.toPhase {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			for _, m := range live {
				if m.to == r && m.toPhase == ph {
					for _, blk := range m.blocks {
						hold[r][blk] = true
					}
				}
			}
			progress[r]++
			if progress[r] < len(plan.perRank[r]) {
				checkSendsHeld(r, progress[r])
			}
			advanced = true
		}
		if !advanced {
			break
		}
	}
	for r := 0; r < n; r++ {
		if progress[r] != len(plan.perRank[r]) {
			t.Fatalf("%v: deadlock after zero-message pruning, rank %d stuck at phase %d/%d",
				plan.Alg, r, progress[r], len(plan.perRank[r]))
		}
	}

	// 4. Exactly-once byte delivery.
	delivered := map[Block]int{}
	for _, m := range live {
		for _, blk := range m.blocks {
			if blk.Dst == m.to {
				delivered[blk]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			blk := Block{Src: i, Dst: j}
			if sz.At(i, j) > 0 {
				if got := delivered[blk]; got != 1 {
					t.Fatalf("%v: %d bytes of pair %d->%d delivered by %d messages, want exactly 1",
						plan.Alg, sz.At(i, j), i, j, got)
				}
				if !hold[j][blk] {
					t.Fatalf("%v: nonzero block %d->%d never reached rank %d", plan.Alg, i, j, j)
				}
			}
		}
	}
}

// TestHierPlanVUniformByteIdentical pins the v-path's anchor: compiled
// from a uniform matrix, PlanHierTreeV must be byte-identical to
// PlanHierTree — same fingerprint (phases, messages, blocks, tags) and
// every message bound to exactly blocks·m bytes.
func TestHierPlanVUniformByteIdentical(t *testing.T) {
	const m = 4096
	for ti, spec := range treeSpecs() {
		n := len(specRanks(spec))
		for _, alg := range HierAlgorithms {
			base := PlanHierTree(spec, alg)
			v := PlanHierTreeV(spec, alg, UniformSizeMatrix(n, m))
			if got, want := planFingerprint(v), planFingerprint(base); got != want {
				t.Fatalf("tree %d %v: uniform v-plan structure diverged:\n--- v ---\n%s--- base ---\n%s",
					ti, alg, got, want)
			}
			for i, msg := range v.msgs {
				if v.vbytes[i] != len(msg.blocks)*m {
					t.Fatalf("tree %d %v: message %d->%d bound to %d bytes, want blocks·m = %d",
						ti, alg, msg.from, msg.to, v.vbytes[i], len(msg.blocks)*m)
				}
			}
			if base.MessageBytes(m) != v.MessageBytes(0) {
				t.Fatalf("tree %d %v: MessageBytes disagree: uniform %d vs bound %d",
					ti, alg, base.MessageBytes(m), v.MessageBytes(0))
			}
		}
	}
}

// randomSizeMatrix draws per-pair sizes with a heavy zero fraction and
// a wide spread, the adversarial shape for zero-skip plumbing.
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
				verifyHierPlanV(t, PlanHierTreeV(spec, alg, sz), sz)
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
			verifyHierPlanV(t, PlanHierTreeV(spec, alg, sz), sz)
		}
	}
}

// TestAlltoallHierPlannedVUniformMatchesUniform runs the same uniform
// exchange through both executors on identically seeded grids: the
// v-executor with a uniform matrix must reproduce the uniform
// executor's simulated completion time exactly (the simulation is
// deterministic, so any divergence means the wire traffic differs).
func TestAlltoallHierPlannedVUniformMatchesUniform(t *testing.T) {
	const m = 20_000
	gp := cluster.Uniform("t-hierv-uni", cluster.WANTuned(cluster.GigabitEthernet()), 2, 3,
		cluster.DefaultWAN(10*sim.Millisecond))
	for _, alg := range HierAlgorithms {
		g1, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		plan := PlanHierTree(FlatSpec(NewPlacement(g1.ClusterOf)), alg)
		w1 := mpi.NewWorld(g1.Env, mpi.Config{})
		uni := Measure(w1, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, m, nil) })

		g2, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		vplan := PlanHierTreeV(FlatSpec(NewPlacement(g2.ClusterOf)), alg, UniformSizeMatrix(6, m))
		w2 := mpi.NewWorld(g2.Env, mpi.Config{})
		v := Measure(w2, 0, 1, func(r *mpi.Rank) { RunPlan(r, vplan, 0, nil) })

		if uni.Mean() != v.Mean() {
			t.Fatalf("%v: v-executor with uniform matrix took %.6fs, uniform executor %.6fs",
				alg, v.Mean(), uni.Mean())
		}
	}
}

// TestAlltoallVOnGrid runs the irregular exchanges end-to-end on the
// mpi runtime — flat AlltoallV and both hierarchical v-plans — with a
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
		plan := PlanHierTreeV(FlatSpec(NewPlacement(g.ClusterOf)), alg, hotspot)
		w := mpi.NewWorld(g.Env, mpi.Config{})
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, 0, nil) })
		if meas.Mean() <= 0.010 || meas.Mean() > 5 {
			t.Fatalf("%v hotspot: implausible completion %.4fs", alg, meas.Mean())
		}

		g2, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		plan2 := PlanHierTreeV(FlatSpec(NewPlacement(g2.ClusterOf)), alg, localOnly)
		w2 := mpi.NewWorld(g2.Env, mpi.Config{})
		meas2 := Measure(w2, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan2, 0, nil) })
		// The makespan includes the pre-measurement barrier's exit skew
		// (its last dissemination hop crosses the 10 ms WAN), so "no WAN
		// exchange traffic" shows up as ~one latency, not zero — but well
		// below any plan that actually moves payload across the WAN
		// (aggregated rendezvous transfers pay several round trips).
		if meas2.Mean() <= 0 || meas2.Mean() >= 0.020 {
			t.Fatalf("%v local-only: completion %.4fs, want positive and within barrier skew of one WAN latency", alg, meas2.Mean())
		}
	}

	// Flat v-exchange, both algorithms and the fallback resolution.
	if got := Bruck.EffectiveV(); got != Direct {
		t.Fatalf("Bruck.EffectiveV() = %v, want Direct fallback", got)
	}
	if got := PostAll.EffectiveV(); got != PostAll {
		t.Fatalf("PostAll.EffectiveV() = %v, want PostAll", got)
	}
	for _, alg := range []Algorithm{Direct, PostAll} {
		g, err := cluster.BuildGridTree(gp.Tree(), 7)
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(g.Env, mpi.Config{})
		effs := make([]Algorithm, n)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { effs[r.ID()] = AlltoallV(r, hotspot, alg) })
		if meas.Mean() <= 0.010 || meas.Mean() > 5 {
			t.Fatalf("AlltoallV %v: implausible completion %.4fs", alg, meas.Mean())
		}
		for id, eff := range effs {
			if eff != alg.EffectiveV() {
				t.Fatalf("AlltoallV rank %d ran %v, want %v", id, eff, alg.EffectiveV())
			}
		}
	}
}
