package grid

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Bandwidth-aware coordinator selection. The hierarchical relay
// serializes every cross-subtree block through its subtree coordinators,
// so the coordinator NIC is the incast bottleneck the κ factor prices —
// and the default (each subtree's lowest rank) ignores measured uplink
// headroom entirely. The planner therefore probes each node's achievable
// NIC rate during characterization, and SelectCoordinators picks, per
// leaf, the coordinator set (which ranks, and how many ports C to split
// the gather/scatter across) that minimizes the predicted hierarchical
// completion time. Homogeneous clusters measure equal headroom and keep
// the lowest-rank default, leaving the model untouched — the selection
// machinery changes nothing unless headroom data says otherwise.

// tagNICProbe is the reserved tag of the per-node headroom ping-pong.
const tagNICProbe int32 = 7200

// selectMargin is the minimum predicted relative improvement a
// non-default coordinator choice must show before it replaces the
// lowest-rank default: within this band a measured-rate wobble could
// flip the choice without a real win.
const selectMargin = 0.02

// standbyCap bounds each leaf's ranked standby-coordinator list. Three
// standbys survive three coordinated deaths in one leaf — already far
// beyond the single-failure scenarios the failover runtime targets —
// while keeping the PlanSpec annotation small.
const standbyCap = 3

// probeHeadroom measures each node's achievable NIC rate (bytes/s) on a
// standalone build of the leaf cluster: every node runs a warmed
// large-message ping-pong against two distinct partners and keeps the
// best observed rate. A pairwise probe is limited by the slower
// endpoint, so the best of two partners isolates the probed node's own
// port unless both partners are degraded too. Two-node leaves have a
// single pair, whose time crosses both access links either way — a
// degraded port cannot be attributed to one endpoint there, both nodes
// measure alike, and selection conservatively keeps the default.
func probeHeadroom(p cluster.Profile, nodes int, opt Options) []float64 {
	rates := make([]float64, nodes)
	if nodes < 2 {
		for i := range rates {
			rates[i] = float64(p.NodeRate(i))
		}
		return rates
	}
	// Unordered probe pairs: (i, i+1) and (i, i+2) mod n, deduplicated.
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	var pairs []pair
	for i := 0; i < nodes; i++ {
		for _, d := range []int{1, 2} {
			j := (i + d) % nodes
			if j == i {
				continue
			}
			pr := pair{a: i, b: j}
			if pr.a > pr.b {
				pr.a, pr.b = pr.b, pr.a
			}
			if !seen[pr] {
				seen[pr] = true
				pairs = append(pairs, pr)
			}
		}
	}
	m := 4 * headroomProbeSize // bandwidth-dominated transfer
	times := make([]float64, len(pairs))
	cl := cluster.Build(p, nodes, opt.Seed+113)
	cl.Net.AttachCollector(opt.Trace)
	w := mpi.NewWorld(cl)
	w.Run(func(r *mpi.Rank) {
		for pi, pr := range pairs {
			if r.ID() != pr.a && r.ID() != pr.b {
				continue
			}
			for _, t := range warmPingPong(r, pr.a, pr.b, tagNICProbe, m, opt.Reps) {
				times[pi] += t / float64(opt.Reps)
			}
		}
	})
	addRunCounters(opt.Trace, CtrProbes, cl)
	for pi, pr := range pairs {
		if times[pi] <= 0 {
			continue
		}
		rate := float64(m) / times[pi]
		if rate > rates[pr.a] {
			rates[pr.a] = rate
		}
		if rate > rates[pr.b] {
			rates[pr.b] = rate
		}
	}
	return rates
}

// warmPingPong runs reps+1 m-byte round trips between ranks a and b,
// the first unmeasured to warm the congestion window, and returns rank
// a's one-way times (half of each round trip); nil on rank b.
func warmPingPong(r *mpi.Rank, a, b int, tag int32, m, reps int) []float64 {
	var out []float64
	for rep := 0; rep <= reps; rep++ {
		if r.ID() == a {
			t0 := r.Now()
			r.Send(b, tag, m)
			r.Recv(b, tag)
			if rep > 0 {
				out = append(out, (r.Now()-t0).Seconds()/2)
			}
		} else {
			r.Recv(a, tag)
			r.Send(a, tag, m)
		}
	}
	return out
}

// safeHeadroom returns leaf l's probed per-node rates with every
// unusable entry — zero (all of a node's probe pair times unmeasured,
// or a 1-node leaf whose profile declares NodeRate 0), negative, or
// non-finite — replaced by the profile's nominal access rate. A node
// whose nominal rate is itself non-positive keeps 0, and betaOf maps it
// to the model's "no headroom data" default rather than dividing by it:
// selection must never emit a non-finite CoordBeta
// (model.ModelNode.CoordBeta poisons every subsequent prediction
// otherwise).
func (pl *Planner) safeHeadroom(l int) []float64 {
	probed := pl.Headroom[l]
	p := pl.Topo.Leaves()[l].Profile
	out := make([]float64, len(probed))
	for i, r := range probed {
		if r > 0 && !math.IsInf(r, 0) {
			out[i] = r
			continue
		}
		if nominal := float64(p.NodeRate(i)); nominal > 0 {
			out[i] = nominal
		}
	}
	return out
}

// betaOf converts a probed NIC rate to the model's per-byte gap,
// mapping unusable rates to 0 — the model's documented "no headroom
// data" fallback — instead of a poisonous +Inf.
func betaOf(rate float64) float64 {
	if rate <= 0 || math.IsInf(rate, 0) {
		return 0
	}
	return 1 / rate
}

// CoordChoice is one leaf's coordinator selection.
type CoordChoice struct {
	// Leaf is the leaf index in tree order.
	Leaf int
	// Local are the chosen coordinators as node indices within the
	// leaf, in ownership order (divergence target k goes to entry
	// k mod C).
	Local []int
	// Ranks are the same coordinators as global MPI ranks of a grid
	// built from the planner's topology (contiguous leaf blocks).
	Ranks []int
	// Rate is the slowest chosen coordinator's probed NIC rate in B/s
	// (the profile's nominal rate where the probe came back unusable —
	// see safeHeadroom).
	Rate float64
	// Standby are the leaf's secondary coordinators as node indices
	// within the leaf, ranked best first by the same measured headroom
	// that ranked the chosen set, excluding the chosen coordinators.
	// They are the failover order: when a coordinator's node is
	// declared dead mid-plan, the executor promotes the first live
	// standby (coll.FailoverRun). Capped at standbyCap entries.
	Standby []int
	// Default reports that the lowest-rank single-coordinator default
	// was kept; the model is left untouched for this leaf.
	Default bool
	// PredT is the predicted best hierarchical completion time with the
	// final selection (every leaf's decided choice) applied.
	PredT float64
}

// String renders the choice for experiment output.
func (c CoordChoice) String() string {
	if c.Default {
		return fmt.Sprintf("leaf %d: rank %d (default)", c.Leaf, c.Ranks[0])
	}
	return fmt.Sprintf("leaf %d: ranks %v (%.0f MB/s)", c.Leaf, c.Ranks, c.Rate/1e6)
}

// leafTargetCounts returns, per leaf in tree order, the number of
// divergence targets (sibling subtrees across all ancestor tiers) —
// the useful upper bound on a leaf's coordinator count, since target
// ownership is what a split partitions.
func leafTargetCounts(t cluster.TopoNode) []int {
	var out []int
	var walk func(v cluster.TopoNode, above int)
	walk = func(v cluster.TopoNode, above int) {
		if v.IsLeaf() {
			out = append(out, above)
			return
		}
		for _, c := range v.Children {
			walk(c, above+len(v.Children)-1)
		}
	}
	walk(t, 0)
	return out
}

// SelectCoordinators picks each leaf's coordinator set by predicted
// cost at per-pair message size m: candidates are the headroom-ranked
// top-C nodes for C = 1..maxCoords (capped by the leaf's width and its
// divergence target count), evaluated through the grid model with the
// candidate's measured NIC gap and split applied. A non-default choice
// must beat the lowest-rank default by selectMargin; otherwise the
// default is kept and the model stays untouched for that leaf, so
// homogeneous grids provably keep today's behavior (all-default
// selections skip the refit below, leaving predictions bit-identical).
// The winning choices are applied to the planner's model, the strategy
// factors ω and κ are re-fitted against the selected plan
// (refitStrategyFactors), Predict reflects both, and PlanSpec carries
// the annotation.
func (pl *Planner) SelectCoordinators(m int) ([]CoordChoice, error) {
	return pl.selectCoordinators(coll.Uniform(coll.KindAlltoall, m))
}

// SelectCoordinatorsV is the irregular-exchange form of
// SelectCoordinators: candidates are evaluated through the model at the
// given size matrix, so a candidate's predicted cost weighs its
// measured headroom by the leaf's *actual* relay bytes (the matrix's
// out- and inbound cuts at that leaf) rather than by the uniform
// (n−s)·m volume — a leaf that relays little can keep a mediocre
// default port while a hotspot leaf is steered or split. Decision
// margin, model application and the ω/κ refit are shared with the
// uniform path; uniform matrices select identically to
// SelectCoordinators at m.
func (pl *Planner) SelectCoordinatorsV(sz coll.SizeMatrix) ([]CoordChoice, error) {
	return pl.selectCoordinators(coll.Irregular(sz))
}

// selectCoordinators is the one selection core behind
// SelectCoordinators, SelectCoordinatorsV and SelectCoordinatorsKind. A
// workload that does not fit the topology is rejected with
// coll.Workload.Validate's error. Candidates are compared through
// hierBest: the best hierarchical prediction of the workload under the
// model's current per-leaf coordinator fields (NumCoords, CoordBeta),
// which the candidate loop mutates.
func (pl *Planner) selectCoordinators(w coll.Workload) ([]CoordChoice, error) {
	if err := w.Validate(pl.Model.TotalNodes()); err != nil {
		return nil, err
	}
	hierBest := func() float64 {
		best := math.Inf(1)
		for _, s := range StrategiesFor(w.Kind)[1:] { // the hierarchical candidates
			if t := pl.Model.Predict(w, s, pl.opt.Trace); t < best {
				best = t
			}
		}
		return best
	}
	leaves := pl.Model.Leaves()
	targetCounts := leafTargetCounts(pl.Topo)
	bases := make([]int, len(leaves))
	base := 0
	for l, lf := range pl.Topo.Leaves() {
		bases[l] = base
		base += lf.Nodes
	}

	// Sanitized headroom: probed rates with unusable entries (zero
	// probes, non-finite noise) replaced by nominal profile rates, so
	// no candidate pricing below can divide by zero.
	safe := make([][]float64, len(leaves))
	for l := range leaves {
		safe[l] = pl.safeHeadroom(l)
	}

	// Provisional pricing: while candidates are compared, every
	// undecided leaf is priced at its best-headroom single port. The
	// hierarchical legs take the worst leaf, so leaving other leaves at
	// their pessimistic nominal pricing would mask this leaf's
	// improvement behind their max.
	for l, lf := range leaves {
		rates := safe[l]
		bi := 0
		for i, r := range rates {
			if r > rates[bi] {
				bi = i
			}
		}
		lf.NumCoords, lf.CoordBeta = 1, betaOf(rates[bi])
	}

	out := make([]CoordChoice, 0, len(leaves))
	for l, lf := range leaves {
		rates := safe[l]
		s := lf.Size

		// Nodes ranked by measured headroom, ties broken toward lower
		// indices so a homogeneous leaf ranks its lowest rank first.
		order := make([]int, s)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return rates[order[a]] > rates[order[b]] })

		minRate := func(nodes []int) float64 {
			mr := rates[nodes[0]]
			for _, i := range nodes[1:] {
				if rates[i] < mr {
					mr = rates[i]
				}
			}
			return mr
		}
		evaluate := func(nodes []int) float64 {
			lf.NumCoords = len(nodes)
			lf.CoordBeta = betaOf(minRate(nodes))
			return hierBest()
		}

		// The default everything must beat: the lowest rank, priced
		// with its measured headroom so candidates compare fairly.
		defCost := evaluate([]int{0})
		bestNodes, bestCost := []int{0}, defCost
		maxC := maxCoords
		if maxC > s {
			maxC = s
		}
		if tc := targetCounts[l]; maxC > tc && tc > 0 {
			maxC = tc
		}
		for c := 1; c <= maxC; c++ {
			cand := append([]int(nil), order[:c]...)
			if cost := evaluate(cand); cost < bestCost {
				bestNodes, bestCost = cand, cost
			}
		}

		isDefault := len(bestNodes) == 1 && bestNodes[0] == 0
		if !isDefault && bestCost >= defCost*(1-selectMargin) {
			isDefault = true // not a decisive win: keep the default
		}
		choice := CoordChoice{Leaf: l}
		if isDefault {
			choice.Default = true
			choice.Local = []int{0}
			choice.Ranks = []int{bases[l]}
			choice.Rate = rates[0]
			// Decided: price the true default port for the remaining
			// leaves' comparisons; zeroed below once all are decided.
			lf.NumCoords, lf.CoordBeta = 1, betaOf(rates[0])
		} else {
			choice.Local = bestNodes
			choice.Rate = minRate(bestNodes)
			for _, i := range bestNodes {
				choice.Ranks = append(choice.Ranks, bases[l]+i)
			}
			lf.NumCoords = len(bestNodes)
			lf.CoordBeta = betaOf(choice.Rate)
		}
		chosen := make(map[int]bool, len(choice.Local))
		for _, i := range choice.Local {
			chosen[i] = true
		}
		for _, i := range order {
			if len(choice.Standby) >= standbyCap {
				break
			}
			if !chosen[i] {
				choice.Standby = append(choice.Standby, i)
			}
		}
		out = append(out, choice)
	}

	// Leaves that kept the default leave the model untouched — the
	// pre-selection planner, provably unchanged without headroom wins.
	anyNonDefault := false
	for l, lf := range leaves {
		if out[l].Default {
			lf.NumCoords, lf.CoordBeta = 0, 0
		} else {
			anyNonDefault = true
		}
	}
	pl.Selected = out
	if anyNonDefault {
		if err := pl.refitStrategyFactors(out); err != nil {
			pl.Selected = nil
			return nil, err
		}
	}
	final := hierBest()
	for i := range out {
		out[i].PredT = final
	}
	return out, nil
}

// specFor builds the coll topology spec of a grid built from topo —
// contiguous rank blocks in leaf (tree) order, matching
// cluster.BuildGridTree's rank assignment — with per-leaf coordinator
// choices (leaf-local node indices) annotated. Inner tiers follow the
// leaf decision: a subtree's default relay is its lowest rank, which
// lives in one of its leaves, so when that leaf's choice moved off the
// (degraded) default, the subtree relays through the leaf's primary
// chosen coordinator instead — otherwise every inter-tier byte would
// still funnel through the port selection steered away from. Default
// (or nil) choices annotate nothing, reproducing the lowest-rank plan
// exactly.
func specFor(topo cluster.TopoNode, choices []CoordChoice) coll.TreeSpec {
	var leafSizes []int
	for _, lf := range topo.Leaves() {
		leafSizes = append(leafSizes, lf.Nodes)
	}
	// leafOf maps a global rank to its leaf index.
	leafOf := func(r int) int {
		for l, n := range leafSizes {
			if r < n {
				return l
			}
			r -= n
		}
		panic("grid: rank outside topology")
	}
	coordsOf := func(l, base int) []int {
		if choices == nil || choices[l].Default {
			return nil
		}
		var out []int
		for _, i := range choices[l].Local {
			if i < leafSizes[l] {
				out = append(out, base+i)
			}
		}
		return out
	}
	// Standbys annotate every leaf with a selection — default choices
	// included, since the default coordinator's node can die too and the
	// headroom ranking knows its best replacement either way.
	standbysOf := func(l, base int) []int {
		if choices == nil {
			return nil
		}
		var out []int
		for _, i := range choices[l].Standby {
			if i < leafSizes[l] {
				out = append(out, base+i)
			}
		}
		return out
	}

	rank := 0
	bases := make([]int, len(leafSizes))
	for l := 1; l < len(leafSizes); l++ {
		bases[l] = bases[l-1] + leafSizes[l-1]
	}
	var walk func(t cluster.TopoNode) coll.TreeSpec
	walk = func(t cluster.TopoNode) coll.TreeSpec {
		if t.IsLeaf() {
			s := coll.TreeSpec{}
			for i := 0; i < t.Nodes; i++ {
				s.Ranks = append(s.Ranks, rank+i)
			}
			s.Coords = coordsOf(leafOf(s.Ranks[0]), s.Ranks[0])
			s.Standbys = standbysOf(leafOf(s.Ranks[0]), s.Ranks[0])
			rank += t.Nodes
			return s
		}
		var s coll.TreeSpec
		lowest := rank // ranks are assigned in tree order: the subtree's lowest is next
		for _, c := range t.Children {
			s.Children = append(s.Children, walk(c))
		}
		if l := leafOf(lowest); choices != nil && !choices[l].Default {
			if cs := coordsOf(l, bases[l]); len(cs) > 0 {
				s.Coords = cs[:1]
			}
		}
		return s
	}
	return walk(topo)
}

// PlanSpec returns the coll topology spec of a grid built from the
// planner's topology, with any selected coordinators annotated (leaf
// coordinator sets plus the inner-tier follow-through; see specFor).
// Compile it with coll.Compile to run the planner's chosen plan;
// before SelectCoordinators it describes the lowest-rank default.
func (pl *Planner) PlanSpec() coll.TreeSpec {
	return specFor(pl.Topo, pl.Selected)
}

// refitStrategyFactors re-runs the capped hierarchical probes with the
// selected coordinators applied and re-inverts the full strategy
// factor curves ω and κ — one point per probe size, exactly as the
// initial fit: the factors summarize the residual loss-recovery
// inflation of the plan that actually runs, and a selection that moves
// the relay off a degraded port (or splits it) changes that plan
// materially — curves fitted against the lowest-rank default would
// misprice it. Probe dispersion and instability land in pl.ProbeStats
// and pl.Warnings with Stage "refit", alongside the initial fit's.
func (pl *Planner) refitStrategyFactors(choices []CoordChoice) error {
	probeTopo := cappedTree(pl.Topo, probeCap)
	sp := pl.opt.Trace.Span("planner.refit_strategy", obs.Int("probe_cap", probeCap))
	defer sp.End()

	// Capped view of the selection: chosen node indices beyond the
	// probe cap fall away; a leaf with none left reverts to default.
	capped := make([]CoordChoice, len(choices))
	probeLeaves := probeTopo.Leaves()
	for l, ch := range choices {
		cc := CoordChoice{Leaf: l, Default: ch.Default}
		for _, i := range ch.Local {
			if i < probeLeaves[l].Nodes {
				cc.Local = append(cc.Local, i)
			}
		}
		if len(cc.Local) == 0 {
			cc.Default = true
			cc.Local = []int{0}
		}
		capped[l] = cc
	}

	// Refits are keyed by the topology plus the capped selection: the
	// probe spec and the inverted probe model depend on nothing else
	// (headroom rates are themselves store-cached and deterministic
	// under the bound options), so a second process planning the same
	// selection restores the refit without a single probe.
	rec, err := fetch(pl.sv, sp, recRefit, "R|"+pl.key+"|"+selectionKey(capped), func() (storedStrategy, error) {
		probeRoot := cappedModel(pl.Model.Root, probeCap)
		for l, lf := range probeRoot.Leaves() {
			if capped[l].Default {
				continue
			}
			rates := pl.safeHeadroom(l)
			mr := rates[capped[l].Local[0]]
			for _, i := range capped[l].Local[1:] {
				if rates[i] < mr {
					mr = rates[i]
				}
			}
			lf.NumCoords = len(capped[l].Local)
			lf.CoordBeta = betaOf(mr)
		}
		spec := specFor(probeTopo, capped)
		return pl.probeStrategyFactors(sp, "refit", probeTopo, model.GridModel{Root: probeRoot}, &spec)
	})
	if err != nil {
		return err
	}
	pl.Model.OverlapGamma, pl.Model.GatherGamma = rec.Omega, rec.Kappa
	return nil
}

// selectionKey renders a capped coordinator selection as a refit cache
// key component: per leaf, "d" for a kept default or the chosen local
// node indices. Leaves render in tree order, so structurally identical
// selections share a key.
func selectionKey(choices []CoordChoice) string {
	var b strings.Builder
	for l, ch := range choices {
		if l > 0 {
			b.WriteByte(';')
		}
		if ch.Default {
			b.WriteByte('d')
			continue
		}
		for i, n := range ch.Local {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", n)
		}
	}
	return b.String()
}

// DescribeStrategy maps a planner strategy to the coll algorithm it
// compiles to, for callers running selected plans; ok is false for
// FlatDirect, which has no hierarchical plan.
func DescribeStrategy(s Strategy) (coll.HierAlgorithm, bool) {
	switch s {
	case HierGather:
		return coll.HierGather, true
	case HierDirect:
		return coll.HierDirect, true
	default:
		return 0, false
	}
}
