package coll

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// flatSpec builds the depth-1 TreeSpec of a flat rank→cluster map:
// every cluster becomes a leaf under one root group.
func flatSpec(clusterOf []int) TreeSpec {
	var t TreeSpec
	for r, c := range clusterOf {
		for len(t.Children) <= c {
			t.Children = append(t.Children, TreeSpec{})
		}
		t.Children[c].Ranks = append(t.Children[c].Ranks, r)
	}
	return t
}

// mustCompile is Compile for inputs the test knows are well formed.
func mustCompile(t testing.TB, spec TreeSpec, w Workload, alg HierAlgorithm) *HierPlan {
	t.Helper()
	plan, err := Compile(spec, w, alg)
	if err != nil {
		t.Fatalf("Compile(%v, %v): %v", w.Kind, alg, err)
	}
	return plan
}

// alltoallPlan compiles the uniform All-to-All plan at m bytes per pair.
func alltoallPlan(t testing.TB, spec TreeSpec, m int, alg HierAlgorithm) *HierPlan {
	t.Helper()
	return mustCompile(t, spec, Uniform(KindAlltoall, m), alg)
}

// refBytes is the tests' independent statement of the payload rule
// (Workload.msgBytes): what a message carrying blocks must weigh.
func refBytes(w Workload, blocks []Block) int {
	srcs, dsts, owed := map[int]bool{}, map[int]bool{}, 0
	for _, b := range blocks {
		srcs[b.Src], dsts[b.Dst] = true, true
		if w.Kind == KindAlltoallv {
			owed += w.Sizes.At(b.Src, b.Dst)
		}
	}
	switch w.Kind {
	case KindAlltoall:
		return len(blocks) * w.M
	case KindAlltoallv:
		return owed
	case KindAllgather:
		return len(srcs) * w.M
	case KindReduceScatter:
		return len(dsts) * w.M
	default: // rooted relays carry one payload whatever they cover
		return min(len(blocks), 1) * w.M
	}
}

// verifyHierPlan executes an All-to-All(v) plan symbolically at block
// granularity: each rank advances through its phases; a phase completes
// once every inbound message's sender has posted it (entered its own
// sending phase) AND every outbound message's receiver has posted the
// matching receive — the rendezvous protocol's completion rule, under
// which a send blocks its phase until the receiver arrives. A block is
// owed when its pair exchanges bytes: every ordered pair of a uniform
// plan, the nonzero entries of an All-to-Allv matrix. It checks, on the
// actual plan the mpi executor runs:
//
//  1. sizing: every message weighs what the payload rule says, and an
//     All-to-Allv message that would weigh nothing does not exist;
//  2. progress: every rank finishes all phases (deadlock-freedom of the
//     phase structure under dependency-respecting scheduling, even when
//     every message is rendezvous and zero messages are pruned);
//  3. causality: a rank holds every owed block it sends at posting time;
//  4. permutation, exactly once: afterwards every rank holds the owed
//     blocks addressed to it, each carried into its destination by
//     exactly one message — a relay never re-sends a delivered block.
func verifyHierPlan(t *testing.T, plan *HierPlan) {
	t.Helper()
	w := plan.Workload
	owed := func(b Block) bool {
		return b.Src != b.Dst && (w.Kind == KindAlltoall || w.Sizes.At(b.Src, b.Dst) > 0)
	}
	for _, m := range plan.msgs {
		if want := refBytes(w, m.blocks); m.bytes != want {
			t.Fatalf("%v: message %d->%d sized %d bytes, blocks weigh %d",
				plan.Alg, m.from, m.to, m.bytes, want)
		}
		if w.Kind == KindAlltoallv && m.bytes == 0 {
			t.Fatalf("%v: zero-payload message %d->%d exists", plan.Alg, m.from, m.to)
		}
	}

	n := plan.Tree.NumRanks()
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

	// checkSendsHeld asserts causality when rank r enters phase ph.
	checkSendsHeld := func(r, ph int) {
		for _, m := range plan.msgs {
			if m.from != r || m.fromPhase != ph {
				continue
			}
			for _, blk := range m.blocks {
				if owed(blk) && !hold[r][blk] {
					t.Fatalf("%v: rank %d posts block %+v in phase %d without holding it",
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
			for _, m := range plan.msgs {
				if m.to == r && m.toPhase == ph && progress[m.from] < m.fromPhase {
					ready = false
					break
				}
				// Rendezvous: a send completes only once the receiver
				// has posted the matching receive.
				if m.from == r && m.fromPhase == ph && progress[m.to] < m.toPhase {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			for _, m := range plan.msgs {
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
			t.Fatalf("%v: deadlock, rank %d stuck at phase %d/%d",
				plan.Alg, r, progress[r], len(plan.perRank[r]))
		}
	}

	delivered := map[Block]int{}
	for _, m := range plan.msgs {
		for _, blk := range m.blocks {
			if blk.Dst == m.to {
				delivered[blk]++
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			blk := Block{Src: i, Dst: j}
			if !owed(blk) {
				continue
			}
			if !hold[j][blk] {
				t.Fatalf("%v: block %d->%d never reached rank %d", plan.Alg, i, j, j)
			}
			if got := delivered[blk]; got != 1 {
				t.Fatalf("%v: block %d->%d delivered by %d messages, want exactly 1",
					plan.Alg, i, j, got)
			}
		}
	}
}

// TestHierPlanPermutation checks block-permutation correctness of both
// hierarchical algorithms across placements with uneven cluster sizes,
// single-rank clusters, one-cluster grids and non-contiguous
// rank→cluster assignments.
func TestHierPlanPermutation(t *testing.T) {
	placements := [][]int{
		{0},
		{0, 0, 0},
		{0, 1},
		{0, 0, 1},
		{0, 1, 2},
		{0, 0, 0, 1, 1, 1, 1},
		{0, 0, 0, 1, 2, 2, 2, 2, 2},
		{0, 1, 0, 2, 1, 0, 2, 2, 1}, // interleaved placement
	}
	for _, clusterOf := range placements {
		for _, alg := range HierAlgorithms {
			verifyHierPlan(t, alltoallPlan(t, flatSpec(clusterOf), 1, alg))
		}
	}
}

// TestHierPlanPermutationRandom fuzzes placements: random cluster counts
// and random (dense, non-empty) assignments.
func TestHierPlanPermutationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		k := rng.Intn(4) + 1
		n := k + rng.Intn(10)
		clusterOf := make([]int, n)
		// Guarantee every cluster is non-empty, then fill randomly.
		perm := rng.Perm(n)
		for c := 0; c < k; c++ {
			clusterOf[perm[c]] = c
		}
		for i := k; i < n; i++ {
			clusterOf[perm[i]] = rng.Intn(k)
		}
		for _, alg := range HierAlgorithms {
			verifyHierPlan(t, alltoallPlan(t, flatSpec(clusterOf), 1, alg))
		}
	}
}

// treeSpecs are multi-level topologies covering uniform 3-level trees,
// uneven depths (a leaf directly under the root next to deep groups),
// single-rank leaves and interleaved rank assignments.
func treeSpecs() []TreeSpec {
	leaf := func(ranks ...int) TreeSpec { return TreeSpec{Ranks: ranks} }
	group := func(children ...TreeSpec) TreeSpec { return TreeSpec{Children: children} }
	return []TreeSpec{
		// Depth 0: a single cluster.
		leaf(0, 1, 2, 3),
		// Depth 1: the PR-1 two-level grid.
		group(leaf(0, 1, 2), leaf(3, 4, 5)),
		// Uniform depth 2: campus → national → continental.
		group(
			group(leaf(0, 1), leaf(2, 3)),
			group(leaf(4, 5), leaf(6, 7)),
		),
		// Uneven cluster sizes and a single-rank campus.
		group(
			group(leaf(0, 1, 2), leaf(3)),
			group(leaf(4, 5), leaf(6, 7, 8, 9)),
		),
		// Uneven depth: a leaf right under the root next to a deep group.
		group(
			leaf(0, 1, 2),
			group(leaf(3, 4), leaf(5)),
		),
		// Interleaved (non-contiguous) rank placement on a 3-level tree.
		group(
			group(leaf(7, 0), leaf(3, 9)),
			group(leaf(1, 8), leaf(5, 2), leaf(4, 6)),
		),
		// Depth 3, mixed shapes, single-rank subtrees.
		group(
			group(
				group(leaf(0), leaf(1, 2)),
				leaf(3, 4),
			),
			group(leaf(5, 6), group(leaf(7), leaf(8))),
		),
	}
}

// TestHierTreePlanPermutation checks block-permutation correctness and
// deadlock-freedom of both hierarchical algorithms across multi-level
// topologies, including uneven depths and single-rank leaves.
func TestHierTreePlanPermutation(t *testing.T) {
	for ti, spec := range treeSpecs() {
		for _, alg := range HierAlgorithms {
			plan := alltoallPlan(t, spec, 1, alg)
			if got, want := plan.Tree.NumRanks(), len(specRanks(spec)); got != want {
				t.Fatalf("tree %d %v: plan covers %d ranks, spec names %d", ti, alg, got, want)
			}
			verifyHierPlan(t, plan)
		}
	}
}

// TestHierTreePlanPermutationRandom fuzzes topology trees: random
// shapes up to depth 3, random rank distribution over leaves.
func TestHierTreePlanPermutationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var build func(depthLeft int) TreeSpec
	var leafCount int
	build = func(depthLeft int) TreeSpec {
		if depthLeft == 0 || rng.Intn(3) == 0 {
			leafCount++
			return TreeSpec{Ranks: []int{}} // ranks filled afterwards
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
	for iter := 0; iter < 40; iter++ {
		leafCount = 0
		spec := build(3)
		if leafCount == 0 {
			continue
		}
		n := leafCount + rng.Intn(8)
		perm := rng.Perm(n)
		perLeaf := make([][]int, leafCount)
		for l := 0; l < leafCount; l++ {
			perLeaf[l] = []int{perm[l]} // every leaf non-empty
		}
		for i := leafCount; i < n; i++ {
			l := rng.Intn(leafCount)
			perLeaf[l] = append(perLeaf[l], perm[i])
		}
		fill(&spec, perLeaf)
		for _, alg := range HierAlgorithms {
			verifyHierPlan(t, alltoallPlan(t, spec, 1, alg))
		}
	}
}

// TestHierTreeAggregation: on a 3-level tree, traffic crossing a tier is
// coordinator-relayed and the top tier carries exactly one aggregated
// message per ordered national pair.
func TestHierTreeAggregation(t *testing.T) {
	spec := TreeSpec{Children: []TreeSpec{
		{Children: []TreeSpec{{Ranks: []int{0, 1, 2}}, {Ranks: []int{3, 4}}}},
		{Children: []TreeSpec{{Ranks: []int{5, 6, 7}}, {Ranks: []int{8}}}},
	}}
	nationOf := func(r int) int {
		if r <= 4 {
			return 0
		}
		return 1
	}
	for _, alg := range HierAlgorithms {
		plan := alltoallPlan(t, spec, 1, alg)
		cross := map[[2]int]int{}
		for _, m := range plan.msgs {
			nf, nt := nationOf(m.from), nationOf(m.to)
			if nf != nt {
				cross[[2]int{nf, nt}]++
				// National coordinators are the lowest ranks: 0 and 5.
				if (m.from != 0 && m.from != 5) || (m.to != 0 && m.to != 5) {
					t.Fatalf("%v: top-tier message %d->%d not coordinator-relayed", alg, m.from, m.to)
				}
				if len(m.blocks) != 5*4 {
					t.Fatalf("%v: top-tier message %d->%d carries %d blocks, want 20", alg, m.from, m.to, len(m.blocks))
				}
			}
		}
		if len(cross) != 2 || cross[[2]int{0, 1}] != 1 || cross[[2]int{1, 0}] != 1 {
			t.Fatalf("%v: top-tier crossings %v, want exactly one per ordered pair", alg, cross)
		}
		// Campus crossings within nation 0: two exchange messages
		// between campus coordinators (0 and 3), one upward gather
		// (3 -> 0 carries campus {3,4}'s outbound) and one downward
		// scatter (0 -> 3) — four coordinator-relayed messages.
		campus := 0
		for _, m := range plan.msgs {
			a, b := m.from <= 2, m.to <= 2
			if m.from <= 4 && m.to <= 4 && a != b {
				campus++
				if (m.from != 0 && m.from != 3) || (m.to != 0 && m.to != 3) {
					t.Fatalf("%v: campus-tier message %d->%d not coordinator-relayed", alg, m.from, m.to)
				}
			}
		}
		if campus != 4 {
			t.Fatalf("%v: %d campus-tier crossings in nation 0, want 4", alg, campus)
		}
	}
}

// TestHierPlanTwoLevelShapePinned pins the exact two-level plan shape
// the flat-placement path produced before the recursive rewrite
// (PR 1), proving depth-1 inputs reproduce it through the unified
// recursive builder: per-rank phase layouts, message counts and
// aggregation for a 3+3 grid.
func TestHierPlanTwoLevelShapePinned(t *testing.T) {
	spec := flatSpec([]int{0, 0, 0, 1, 1, 1})

	ops := func(p *HierPlan, r, ph int) (sends, recvs int) {
		if ph >= len(p.perRank[r]) {
			return 0, 0
		}
		return len(p.perRank[r][ph].sends), len(p.perRank[r][ph].recvs)
	}

	// hier-gather: 0 intra, 1 gather, 2 coordinator exchange, 3 scatter.
	g := alltoallPlan(t, spec, 1, HierGather)
	for r := 0; r < 6; r++ {
		if got := len(g.perRank[r]); got != 4 {
			t.Fatalf("gather: rank %d has %d phases, want 4", r, got)
		}
	}
	for _, r := range []int{0, 3} { // coordinators
		for ph, want := range [][2]int{{2, 2}, {0, 2}, {1, 1}, {2, 0}} {
			s, v := ops(g, r, ph)
			if s != want[0] || v != want[1] {
				t.Fatalf("gather: coord %d phase %d = %d sends/%d recvs, want %d/%d", r, ph, s, v, want[0], want[1])
			}
		}
	}
	for _, r := range []int{1, 2, 4, 5} { // members
		for ph, want := range [][2]int{{2, 2}, {1, 0}, {0, 0}, {0, 1}} {
			s, v := ops(g, r, ph)
			if s != want[0] || v != want[1] {
				t.Fatalf("gather: member %d phase %d = %d sends/%d recvs, want %d/%d", r, ph, s, v, want[0], want[1])
			}
		}
	}

	// hier-direct: members collapse to a single do-everything phase;
	// coordinators keep 3 (intra+gathers, exchange, scatter).
	d := alltoallPlan(t, spec, 1, HierDirect)
	for _, r := range []int{1, 2, 4, 5} {
		if got := len(d.perRank[r]); got != 1 {
			t.Fatalf("direct: member %d has %d phases, want 1", r, got)
		}
		s, v := ops(d, r, 0)
		if s != 3 || v != 3 {
			t.Fatalf("direct: member %d phase 0 = %d sends/%d recvs, want 3/3", r, s, v)
		}
	}
	for _, r := range []int{0, 3} {
		if got := len(d.perRank[r]); got != 3 {
			t.Fatalf("direct: coord %d has %d phases, want 3", r, got)
		}
		for ph, want := range [][2]int{{2, 4}, {1, 1}, {2, 0}} {
			s, v := ops(d, r, ph)
			if s != want[0] || v != want[1] {
				t.Fatalf("direct: coord %d phase %d = %d sends/%d recvs, want %d/%d", r, ph, s, v, want[0], want[1])
			}
		}
	}

	// Aggregation invariants shared by both variants: one exchange
	// message per ordered cluster pair with 9 blocks, gathers of 3
	// blocks, scatters of 3 blocks, 12 intra messages.
	for _, p := range []*HierPlan{g, d} {
		var intra, gather, xchg, scatter int
		for _, m := range p.msgs {
			switch {
			case p.Tree.leafOf[m.from] != p.Tree.leafOf[m.to]:
				xchg++
				if len(m.blocks) != 9 {
					t.Fatalf("%v: exchange carries %d blocks, want 9", p.Alg, len(m.blocks))
				}
			case len(m.blocks) == 1:
				intra++
			case m.to == p.Tree.Coordinators(p.Tree.leafOf[m.to])[0]:
				gather++
			default:
				scatter++
			}
		}
		if intra != 12 || gather != 4 || xchg != 2 || scatter != 4 {
			t.Fatalf("%v: intra/gather/xchg/scatter = %d/%d/%d/%d, want 12/4/2/4",
				p.Alg, intra, gather, xchg, scatter)
		}
	}
}

// TestHierPlanAggregation: the WAN-crossing traffic of a hierarchical
// plan is exactly one message per ordered cluster pair, carrying every
// inter-cluster block once.
func TestHierPlanAggregation(t *testing.T) {
	for _, alg := range HierAlgorithms {
		plan := alltoallPlan(t, flatSpec([]int{0, 0, 0, 1, 1, 2}), 1, alg)
		place := plan.Tree
		cross := map[[2]int]int{}
		for _, m := range plan.msgs {
			cf, ct := place.leafOf[m.from], place.leafOf[m.to]
			if cf != ct {
				cross[[2]int{cf, ct}]++
				if m.from != place.Coordinators(cf)[0] || m.to != place.Coordinators(ct)[0] {
					t.Fatalf("%v: inter-cluster message %d->%d not coordinator-relayed", alg, m.from, m.to)
				}
			}
		}
		k := place.NumLeaves()
		if len(cross) != k*(k-1) {
			t.Fatalf("%v: %d cross-cluster message pairs, want %d", alg, len(cross), k*(k-1))
		}
		for pair, cnt := range cross {
			if cnt != 1 {
				t.Fatalf("%v: cluster pair %v crossed by %d messages, want 1", alg, pair, cnt)
			}
		}
	}
}

// TestHierAlltoallOnGrid runs both hierarchical algorithms end-to-end on
// a simulated two-cluster grid over a 10 ms WAN and checks completion
// (the mpi runtime panics on deadlock) with a physically sensible time.
func TestHierAlltoallOnGrid(t *testing.T) {
	gp := cluster.Uniform("t-hier", cluster.GigabitEthernet(), 2, 3,
		cluster.DefaultWAN(10*sim.Millisecond))
	for _, alg := range HierAlgorithms {
		g, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		plan := alltoallPlan(t, flatSpec(g.ClusterOf), 20_000, alg)
		w := mpi.NewWorld(g.Env)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
		if meas.Mean() <= 0.010 {
			t.Fatalf("%v: completion %.4fs, cannot beat one WAN latency", alg, meas.Mean())
		}
		if meas.Mean() > 5 {
			t.Fatalf("%v: completion %.1fs implausibly slow", alg, meas.Mean())
		}
	}
}

// TestHierTreeAlltoallOn3LevelGrid runs both hierarchical algorithms
// end-to-end on a simulated 3-level grid (2 nations × 2 campuses × 2
// nodes, 5 ms campus / 20 ms continental tiers) and checks completion
// with a physically sensible time (the mpi runtime panics on deadlock).
func TestHierTreeAlltoallOn3LevelGrid(t *testing.T) {
	p := cluster.WANTuned(cluster.GigabitEthernet())
	tree := cluster.ThreeLevel("t-hier3", p, 2, 2, 2,
		cluster.DefaultWAN(5*sim.Millisecond), cluster.DefaultWAN(20*sim.Millisecond))
	for _, alg := range HierAlgorithms {
		g, err := cluster.BuildGridTree(tree, 5)
		if err != nil {
			t.Fatal(err)
		}
		plan := alltoallPlan(t, GridSpec(g), 20_000, alg)
		if plan.Tree.Height() != 2 {
			t.Fatalf("%v: plan height %d, want 2", alg, plan.Tree.Height())
		}
		w := mpi.NewWorld(g.Env)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
		if meas.Mean() <= 0.020 {
			t.Fatalf("%v: completion %.4fs, cannot beat one continental latency", alg, meas.Mean())
		}
		if meas.Mean() > 10 {
			t.Fatalf("%v: completion %.1fs implausibly slow", alg, meas.Mean())
		}
	}
}

// TestAlltoallReportsEffectiveAlgorithm is the regression test for the
// silent Pairwise→Direct fallback: the effective algorithm is reported,
// both statically and from the runtime.
func TestAlltoallReportsEffectiveAlgorithm(t *testing.T) {
	if got := Pairwise.Effective(6); got != Direct {
		t.Fatalf("Pairwise.Effective(6) = %v, want Direct", got)
	}
	if got := Pairwise.Effective(8); got != Pairwise {
		t.Fatalf("Pairwise.Effective(8) = %v, want Pairwise", got)
	}
	for _, alg := range []Algorithm{Direct, PostAll, Bruck} {
		if got := alg.Effective(6); got != alg {
			t.Fatalf("%v.Effective(6) = %v, want %v", alg, got, alg)
		}
	}
	for _, n := range []int{6, 8} {
		cl := cluster.Build(cluster.Myrinet(), n, 3)
		w := mpi.NewWorld(cl)
		got := make([]Algorithm, n)
		w.Run(func(r *mpi.Rank) {
			got[r.ID()] = Alltoall(r, 4096, Pairwise)
		})
		want := Pairwise.Effective(n)
		for id, eff := range got {
			if eff != want {
				t.Fatalf("n=%d rank %d: Alltoall ran %v, want %v", n, id, eff, want)
			}
		}
	}
}

// planFingerprint renders a plan's full observable structure — per-rank
// phase op lists and every message with its payload and blocks — for
// exact plan-equality regression checks.
func planFingerprint(p *HierPlan) string {
	var b strings.Builder
	for r, phases := range p.perRank {
		fmt.Fprintf(&b, "rank %d:", r)
		for ph, ops := range phases {
			fmt.Fprintf(&b, " [%d: %ds %dr]", ph, len(ops.sends), len(ops.recvs))
		}
		b.WriteString("\n")
	}
	for _, m := range p.msgs {
		fmt.Fprintf(&b, "msg %d@%d -> %d@%d tag %d bytes %d blocks %v\n",
			m.from, m.fromPhase, m.to, m.toPhase, m.tag, m.bytes, m.blocks)
	}
	return b.String()
}

// TestHierPlanDefaultEqualsExplicitLowestCoords pins the regression the
// coordinator extension must honor: naming each subtree's lowest rank
// explicitly produces byte-identical plans to the no-Coords default, so
// the selection machinery provably changes nothing unless a non-default
// coordinator is chosen.
func TestHierPlanDefaultEqualsExplicitLowestCoords(t *testing.T) {
	lowest := func(ranks []int) int {
		lo := ranks[0]
		for _, r := range ranks {
			if r < lo {
				lo = r
			}
		}
		return lo
	}
	var explicit func(s TreeSpec) TreeSpec
	explicit = func(s TreeSpec) TreeSpec {
		if len(s.Children) == 0 {
			s.Coords = []int{lowest(s.Ranks)}
			return s
		}
		children := make([]TreeSpec, len(s.Children))
		var all []int
		for i, c := range s.Children {
			children[i] = explicit(c)
			all = append(all, specRanks(c)...)
		}
		s.Children = children
		s.Coords = []int{lowest(all)}
		return s
	}
	for ti, spec := range treeSpecs() {
		for _, alg := range HierAlgorithms {
			def := planFingerprint(alltoallPlan(t, spec, 1, alg))
			exp := planFingerprint(alltoallPlan(t, explicit(spec), 1, alg))
			if def != exp {
				t.Fatalf("tree %d %v: explicit lowest-rank coords changed the plan:\n--- default ---\n%s--- explicit ---\n%s",
					ti, alg, def, exp)
			}
		}
	}
}

// specRanks collects every rank of a spec subtree.
func specRanks(s TreeSpec) []int {
	if len(s.Children) == 0 {
		return append([]int(nil), s.Ranks...)
	}
	var out []int
	for _, c := range s.Children {
		out = append(out, specRanks(c)...)
	}
	return out
}

// TestHierPlanNonLowestCoordinatorRouting: with explicit non-lowest
// coordinators, every cross-cluster message is relayed between exactly
// the chosen ranks, and the plan invariants still hold.
func TestHierPlanNonLowestCoordinatorRouting(t *testing.T) {
	spec := TreeSpec{Children: []TreeSpec{
		{Ranks: []int{0, 1, 2}, Coords: []int{2}},
		{Ranks: []int{3, 4, 5}, Coords: []int{4}},
	}}
	for _, alg := range HierAlgorithms {
		plan := alltoallPlan(t, spec, 1, alg)
		verifyHierPlan(t, plan)
		if got := plan.Tree.Coordinators(0); len(got) != 1 || got[0] != 2 {
			t.Fatalf("%v: leaf 0 coordinators = %v, want [2]", alg, got)
		}
		for _, m := range plan.msgs {
			if plan.Tree.leafOf[m.from] == plan.Tree.leafOf[m.to] {
				continue
			}
			if (m.from != 2 && m.from != 4) || (m.to != 2 && m.to != 4) {
				t.Fatalf("%v: cross message %d->%d not relayed via chosen coordinators", alg, m.from, m.to)
			}
		}
	}
}

// TestHierPlanMultiCoordinatorSplit: a wide leaf with two coordinators
// splits its relay by divergence target — target k is owned by
// coordinator k mod C — so each coordinator carries exactly its share
// of the cross traffic and the gather incast lands on two ports.
func TestHierPlanMultiCoordinatorSplit(t *testing.T) {
	spec := TreeSpec{Children: []TreeSpec{
		{Ranks: []int{0, 1, 2, 3}, Coords: []int{1, 3}},
		{Ranks: []int{4, 5}},
		{Ranks: []int{6, 7}},
	}}
	for _, alg := range HierAlgorithms {
		plan := alltoallPlan(t, spec, 1, alg)
		verifyHierPlan(t, plan)

		// Leaf 0's targets in canonical order are cluster 1 (owner 1)
		// and cluster 2 (owner 3).
		wantOwner := map[int]int{1: 1, 2: 3}
		for _, m := range plan.msgs {
			lf, lt := plan.Tree.leafOf[m.from], plan.Tree.leafOf[m.to]
			if lf == lt {
				continue
			}
			if lf == 0 {
				if want := wantOwner[lt]; m.from != want {
					t.Fatalf("%v: exchange to cluster %d sent by %d, want owner %d", alg, lt, m.from, want)
				}
			}
			if lt == 0 {
				if want := wantOwner[lf]; m.to != want {
					t.Fatalf("%v: exchange from cluster %d received by %d, want owner %d", alg, lf, m.to, want)
				}
			}
		}

		// Gather split: every member of leaf 0 hands cluster-1-bound
		// blocks to rank 1 and cluster-2-bound blocks to rank 3 — no
		// single port sees the whole incast.
		gathers := map[[2]int]int{} // (member, owner) -> messages
		for _, m := range plan.msgs {
			if plan.Tree.leafOf[m.from] != 0 || plan.Tree.leafOf[m.to] != 0 {
				continue
			}
			if len(m.blocks) > 0 && m.blocks[0].Src == m.from && plan.Tree.leafOf[m.blocks[0].Dst] != 0 {
				gathers[[2]int{m.from, m.to}]++
			}
		}
		for _, member := range []int{0, 2} { // plain members gather to both owners
			for _, owner := range []int{1, 3} {
				if gathers[[2]int{member, owner}] != 1 {
					t.Fatalf("%v: member %d -> owner %d gather messages = %d, want 1 (gathers: %v)",
						alg, member, owner, gathers[[2]int{member, owner}], gathers)
				}
			}
		}
		// The co-coordinators forward each other the targets they do
		// not own.
		if gathers[[2]int{1, 3}] != 1 || gathers[[2]int{3, 1}] != 1 {
			t.Fatalf("%v: co-coordinator handoffs missing: %v", alg, gathers)
		}
	}
}

// TestHierTreeCoordinatorFuzz fuzzes topology trees with random
// coordinator assignments — non-lowest ranks, multiple coordinators,
// at leaves and at inner tiers — asserting the full plan invariants:
// every block delivered exactly once, causality, and rendezvous-safe
// deadlock-free phase ordering.
func TestHierTreeCoordinatorFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
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
	// assignCoords gives each node, with probability 1/2, a random
	// coordinator set drawn from its subtree: random size 1..3, random
	// members, in random order — lowest rank only by accident.
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
		for _, alg := range HierAlgorithms {
			verifyHierPlan(t, alltoallPlan(t, spec, 1, alg))
		}
	}
}

// TestTreeSpecCoordsValidation: a malformed spec, algorithm or
// spec/workload pairing must be rejected by Compile with an error naming
// the offender — specs arrive from planners and callers — not panic or
// silently produce a broken plan.
func TestTreeSpecCoordsValidation(t *testing.T) {
	leaf := func(ranks ...int) TreeSpec { return TreeSpec{Ranks: ranks} }
	pair := func(a, b TreeSpec) TreeSpec { return TreeSpec{Children: []TreeSpec{a, b}} }
	ok := pair(leaf(0, 1), leaf(2, 3))
	alltoall := Uniform(KindAlltoall, 8)
	for _, tc := range []struct {
		name string
		spec TreeSpec
		w    Workload
		alg  HierAlgorithm
		want string
	}{
		{"ranks-and-children", TreeSpec{Ranks: []int{0}, Children: []TreeSpec{leaf(1)}}, alltoall, HierGather, "both ranks and children"},
		{"neither-ranks-nor-children", pair(leaf(0, 1), TreeSpec{}), alltoall, HierGather, "neither ranks nor children"},
		{"rank-twice-in-a-leaf", pair(leaf(0, 0), leaf(1, 2)), alltoall, HierGather, "rank 0 appears twice"},
		{"rank-in-two-leaves", pair(leaf(0, 1), leaf(1, 2)), alltoall, HierGather, "rank 1 appears twice"},
		{"rank-missing", pair(leaf(0, 1), leaf(2, 4)), alltoall, HierGather, "rank 4 outside dense range 0..3"},
		{"rank-negative", pair(leaf(-1, 0), leaf(1, 2)), alltoall, HierGather, "rank -1 outside dense range"},
		{"coordinator-outside-subtree", pair(TreeSpec{Ranks: []int{0, 1}, Coords: []int{2}}, leaf(2, 3)), alltoall, HierGather, "coordinator 2 is not a rank of its subtree"},
		{"coordinator-twice", pair(TreeSpec{Ranks: []int{0, 1}, Coords: []int{1, 1}}, leaf(2, 3)), alltoall, HierGather, "coordinator 1 named twice"},
		{"standby-outside-subtree", pair(TreeSpec{Ranks: []int{0, 1}, Standbys: []int{3}}, leaf(2, 3)), alltoall, HierGather, "standby 3 is not a rank of its subtree"},
		{"matrix-rank-mismatch", ok, Irregular(NewSizeMatrix(5)), HierGather, "covers 5 ranks, topology has 4"},
		{"unknown-kind", ok, Uniform(Kind(42), 8), HierGather, "unknown collective kind 42"},
		{"unknown-alg", ok, alltoall, HierAlgorithm(9), "unknown hierarchical algorithm 9"},
		// Rooted relays ignore the variant when laying out phases, but
		// an unknown one is still the caller's bug.
		{"unknown-alg-rooted", ok, Uniform(KindBroadcast, 8), HierAlgorithm(9), "unknown hierarchical algorithm 9"},
	} {
		plan, err := Compile(tc.spec, tc.w, tc.alg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || plan != nil {
			t.Errorf("%s: plan %v, error %v, want nil and an error naming %q", tc.name, plan != nil, err, tc.want)
		}
	}
	for _, kind := range suiteKinds {
		if _, err := Compile(ok, Uniform(kind, 8), HierDirect); err != nil {
			t.Errorf("%v: well-formed input rejected: %v", kind, err)
		}
	}
}

// TestHierAlltoallOnGridWithCoords runs both hierarchical algorithms
// end-to-end on the mpi runtime with non-default coordinators — a
// non-lowest single coordinator and a 2-way split wide cluster — and
// checks completion with a physically sensible time.
func TestHierAlltoallOnGridWithCoords(t *testing.T) {
	gp := cluster.Uniform("t-hier-coords", cluster.WANTuned(cluster.GigabitEthernet()), 3, 3,
		cluster.DefaultWAN(10*sim.Millisecond))
	for _, alg := range HierAlgorithms {
		g, err := cluster.BuildGridTree(gp.Tree(), 5)
		if err != nil {
			t.Fatal(err)
		}
		spec := GridSpec(g)
		for i, c := range [][]int{{1, 2}, {4}, {8}} {
			spec.Children[i].Coords = c
		}
		plan := alltoallPlan(t, spec, 20_000, alg)
		verifyHierPlan(t, plan)
		w := mpi.NewWorld(g.Env)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
		if meas.Mean() <= 0.010 {
			t.Fatalf("%v: completion %.4fs, cannot beat one WAN latency", alg, meas.Mean())
		}
		if meas.Mean() > 5 {
			t.Fatalf("%v: completion %.1fs implausibly slow", alg, meas.Mean())
		}
	}
}
