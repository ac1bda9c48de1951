package coll

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// Hierarchical All-to-All for multi-cluster and multi-level grids. Flat
// Direct Exchange sends every inter-cluster block as its own message
// across the shared WAN uplink — n_c·(n−n_c) start-ups per cluster over
// a 10–100 ms pipe. The hierarchical algorithms route inter-cluster
// traffic through one coordinator per subtree (the MagPIe/LaPIe
// structure the paper's prediction framework is built for): local
// blocks travel the LAN directly, remote blocks are aggregated at
// coordinators, exchanged coordinator-to-coordinator as one large
// message per subtree pair at each tier, and scattered on arrival.
//
// Topologies are arbitrary trees (TreeSpec): a leaf is a cluster of
// ranks, a group is a set of subtrees joined by a WAN tier. A two-level
// grid is the depth-1 tree; the paper's single cluster is the depth-0
// tree; campus → national → continental deployments are depth-2 and
// beyond. One recursive plan builder covers every depth — the flat
// Placement API below compiles through the same path.
//
// Coordinators are a planned decision, not a convention. By default each
// subtree relays through its lowest rank, but a TreeSpec may name any
// member — or several. With C coordinators the subtree's relay traffic
// is partitioned by divergence target: target k (in the canonical
// bottom-up ancestor walk) is owned by coordinator k mod C, in both
// directions, so a wide cluster's gather incast and scatter fan-out
// split across C NIC ports instead of serializing through one.
//
// Both algorithms are generated as explicit per-rank communication plans
// (phases of matched sends and receives annotated with the logical
// blocks they carry). The plan is what runs on the mpi runtime, and the
// same plan is executed symbolically by tests to prove every (src,dst)
// block reaches its destination under arbitrary rank→cluster placements
// — including uneven cluster sizes and uneven tree depths — and that the
// phase structure is deadlock-free.

// tagHier is the reserved tag base for hierarchical collectives.
const tagHier int32 = 6000

// HierAlgorithm selects a hierarchical All-to-All variant.
type HierAlgorithm int

const (
	// HierGather is the sequential variant: intra-cluster direct
	// exchange rounds, then per-tier sweeps — gather remote-bound blocks
	// at each subtree coordinator going up, one aggregated exchange per
	// subtree pair at each tier, and scatters going down. Phases do not
	// overlap, so each WAN tier sees exactly one aggregated message per
	// subtree pair with no competing lower-tier traffic.
	HierGather HierAlgorithm = iota
	// HierDirect overlaps the intra-cluster direct exchange with the
	// coordinator relay: every rank posts its operations as early as
	// data dependencies allow, so LAN and WAN transfers proceed
	// concurrently and the WAN latency hides behind local work.
	HierDirect
)

// HierAlgorithms lists the hierarchical variants.
var HierAlgorithms = []HierAlgorithm{HierGather, HierDirect}

// String names the variant as used in experiment output.
func (a HierAlgorithm) String() string {
	switch a {
	case HierGather:
		return "hier-gather"
	case HierDirect:
		return "hier-direct"
	default:
		return fmt.Sprintf("HierAlgorithm(%d)", int(a))
	}
}

// TreeSpec declares a topology subtree for plan construction: exactly
// one of Ranks (a leaf cluster) or Children (a group of subtrees joined
// by one WAN tier) must be non-empty. Ranks across the whole tree must
// cover 0..n−1, each exactly once, in any order.
//
// Coords optionally names the subtree's coordinator ranks. Every entry
// must be a rank of the subtree and appear once; the slice order is the
// ownership order (divergence target k is owned by Coords[k mod C]).
// Empty Coords keeps the default: the subtree's lowest rank.
type TreeSpec struct {
	Ranks    []int
	Children []TreeSpec
	Coords   []int
	// Standbys optionally ranks the subtree's secondary coordinators,
	// best first — the failover order when a coordinator is declared
	// dead mid-plan (see FailoverRun). Planners derive it from the same
	// per-node headroom probing that picks Coords. Every entry must be a
	// rank of the subtree; entries may overlap Coords (a standby for one
	// ownership slot may hold another).
	Standbys []int
}

// WithLeafCoords returns a deep copy of the spec with per-leaf
// coordinator sets installed in leaf (tree) order. A nil entry keeps
// that leaf's default; coords shorter than the leaf count leaves the
// remaining leaves at their defaults.
func (t TreeSpec) WithLeafCoords(coords [][]int) TreeSpec {
	li := 0
	var walk func(s TreeSpec) TreeSpec
	walk = func(s TreeSpec) TreeSpec {
		if len(s.Children) == 0 {
			s.Ranks = append([]int(nil), s.Ranks...)
			s.Standbys = append([]int(nil), s.Standbys...)
			if li < len(coords) && len(coords[li]) > 0 {
				s.Coords = append([]int(nil), coords[li]...)
			}
			li++
			return s
		}
		children := make([]TreeSpec, len(s.Children))
		for i, c := range s.Children {
			children[i] = walk(c)
		}
		s.Children = children
		return s
	}
	return walk(t)
}

// FlatSpec builds the depth-1 TreeSpec of a flat rank→cluster map:
// every cluster becomes a leaf under one root group.
func FlatSpec(p Placement) TreeSpec {
	var t TreeSpec
	for c := 0; c < p.NumClusters(); c++ {
		t.Children = append(t.Children, TreeSpec{Ranks: p.Members(c)})
	}
	return t
}

// GridSpec mirrors a built grid into the plan builder's topology spec:
// the tree shape of the topology with each leaf's assigned rank block.
func GridSpec(g *cluster.Grid) TreeSpec {
	li := 0
	var walk func(t cluster.TopoNode) TreeSpec
	walk = func(t cluster.TopoNode) TreeSpec {
		if t.IsLeaf() {
			s := TreeSpec{Ranks: g.Members[li]}
			li++
			return s
		}
		var s TreeSpec
		for _, c := range t.Children {
			s.Children = append(s.Children, walk(c))
		}
		return s
	}
	return walk(g.Tree)
}

// pnode is a compiled topology-tree node.
type pnode struct {
	ranks    []int // all ranks of the subtree, ascending
	children []*pnode
	parent   *pnode
	height   int   // 0 for leaves
	depth    int   // 0 for the root
	coords   []int // coordinator set, ownership order; default lowest rank
	standbys []int // ranked secondary coordinators (failover order)
	leafIdx  int   // dense leaf index, -1 for groups
}

func (v *pnode) leaf() bool { return len(v.children) == 0 }

// targetsOf returns the divergence targets of v in canonical order:
// walking ancestors bottom-up, the sibling subtrees at each level in
// child order. Every rank outside v belongs to exactly one target (the
// sibling subtree at the level where its path diverges from v's).
func targetsOf(v *pnode) []*pnode {
	var out []*pnode
	for w := v; w.parent != nil; w = w.parent {
		for _, s := range w.parent.children {
			if s != w {
				out = append(out, s)
			}
		}
	}
	return out
}

// ownerOf returns the coordinator of v that owns the traffic diverging
// at target t — both the outbound blocks addressed into t and the
// inbound blocks originating there. Targets are assigned round-robin
// over v's coordinator set in canonical target order, which is what
// partitions a wide cluster's relay across its C coordinator ports.
func ownerOf(v, t *pnode) int {
	idx := 0
	for w := v; w.parent != nil; w = w.parent {
		for _, s := range w.parent.children {
			if s == w {
				continue
			}
			if s == t {
				return v.coords[idx%len(v.coords)]
			}
			idx++
		}
	}
	panic("coll: ownerOf called with a non-divergence target")
}

// deliveredAbove reports whether rank d (a rank of v's subtree) already
// holds target t's inbound blocks addressed to it: d owns t at v or at
// an ancestor relay on the chain up to t's sibling subtree, so the
// exchange (or an intermediate scatter hop) handed d its own blocks
// directly and no deeper hop may re-forward them — a deeper relay never
// held them.
func deliveredAbove(v, t *pnode, d int) bool {
	for w := v; ; w = w.parent {
		if ownerOf(w, t) == d {
			return true
		}
		if w.parent == t.parent {
			return false
		}
	}
}

// TreePlacement maps ranks onto a compiled topology tree. It is the
// hierarchical generalization of Placement: leaves are clusters, inner
// nodes are WAN tiers.
type TreePlacement struct {
	root   *pnode
	leaves []*pnode
	leafOf []int // rank → leaf index
}

// NewTreePlacement validates and compiles a topology spec. It panics on
// malformed specs (mixed leaf/group nodes, missing or duplicate ranks),
// like NewPlacement.
func NewTreePlacement(spec TreeSpec) TreePlacement {
	tp := TreePlacement{}
	tp.root = tp.compile(spec, nil, 0)
	n := 0
	for _, lf := range tp.leaves {
		n += len(lf.ranks)
	}
	if n == 0 {
		panic("coll: empty topology tree")
	}
	tp.leafOf = make([]int, n)
	for i := range tp.leafOf {
		tp.leafOf[i] = -1
	}
	for li, lf := range tp.leaves {
		for _, r := range lf.ranks {
			if r < 0 || r >= n {
				panic(fmt.Sprintf("coll: rank %d outside dense range 0..%d", r, n-1))
			}
			if tp.leafOf[r] != -1 {
				panic(fmt.Sprintf("coll: rank %d appears in two leaves", r))
			}
			tp.leafOf[r] = li
		}
	}
	return tp
}

// compile recursively builds pnodes, assigning leaf indices in spec
// order and computing subtree rank sets, heights and depths.
func (tp *TreePlacement) compile(spec TreeSpec, parent *pnode, depth int) *pnode {
	v := &pnode{parent: parent, depth: depth, leafIdx: -1}
	switch {
	case len(spec.Ranks) > 0 && len(spec.Children) > 0:
		panic("coll: tree node has both ranks and children")
	case len(spec.Ranks) > 0:
		v.ranks = append([]int(nil), spec.Ranks...)
		sort.Ints(v.ranks)
		for i := 1; i < len(v.ranks); i++ {
			if v.ranks[i] == v.ranks[i-1] {
				panic(fmt.Sprintf("coll: rank %d duplicated within a leaf", v.ranks[i]))
			}
		}
		v.leafIdx = len(tp.leaves)
		tp.leaves = append(tp.leaves, v)
	case len(spec.Children) > 0:
		for _, cs := range spec.Children {
			c := tp.compile(cs, v, depth+1)
			v.children = append(v.children, c)
			v.ranks = append(v.ranks, c.ranks...)
			if c.height+1 > v.height {
				v.height = c.height + 1
			}
		}
		sort.Ints(v.ranks)
	default:
		panic("coll: tree node has neither ranks nor children")
	}
	if len(spec.Coords) > 0 {
		in := make(map[int]bool, len(v.ranks))
		for _, r := range v.ranks {
			in[r] = true
		}
		seen := make(map[int]bool, len(spec.Coords))
		for _, cr := range spec.Coords {
			if !in[cr] {
				panic(fmt.Sprintf("coll: coordinator %d is not a rank of its subtree", cr))
			}
			if seen[cr] {
				panic(fmt.Sprintf("coll: coordinator %d named twice", cr))
			}
			seen[cr] = true
		}
		v.coords = append([]int(nil), spec.Coords...)
	} else {
		v.coords = []int{v.ranks[0]}
	}
	if len(spec.Standbys) > 0 {
		in := make(map[int]bool, len(v.ranks))
		for _, r := range v.ranks {
			in[r] = true
		}
		for _, sr := range spec.Standbys {
			if !in[sr] {
				panic(fmt.Sprintf("coll: standby %d is not a rank of its subtree", sr))
			}
		}
		v.standbys = append([]int(nil), spec.Standbys...)
	}
	return v
}

// NumRanks returns the total rank count.
func (tp TreePlacement) NumRanks() int { return len(tp.leafOf) }

// NumLeaves returns the number of leaf clusters.
func (tp TreePlacement) NumLeaves() int { return len(tp.leaves) }

// LeafOf returns the leaf index of rank r.
func (tp TreePlacement) LeafOf(r int) int { return tp.leafOf[r] }

// LeafMembers returns the ranks of leaf l in ascending order.
func (tp TreePlacement) LeafMembers(l int) []int { return tp.leaves[l].ranks }

// Coordinators returns leaf l's coordinator set in ownership order
// (divergence target k is owned by entry k mod C). The default set is
// the leaf's lowest rank.
func (tp TreePlacement) Coordinators(l int) []int {
	return append([]int(nil), tp.leaves[l].coords...)
}

// Standbys returns leaf l's ranked secondary coordinators (failover
// order), or nil when the spec named none.
func (tp TreePlacement) Standbys(l int) []int {
	return append([]int(nil), tp.leaves[l].standbys...)
}

// Height returns the root height: 0 for a single cluster, 1 for a
// two-level grid, 2 for campus → national → continental, and so on.
func (tp TreePlacement) Height() int { return tp.root.height }

// Placement flattens the tree to leaf granularity: leaf index becomes
// cluster index. For depth-1 trees this is the inverse of FlatSpec.
func (tp TreePlacement) Placement() Placement {
	return NewPlacement(append([]int(nil), tp.leafOf...))
}

// Placement maps ranks to clusters of a two-level grid. Cluster indices
// must be dense (0..K-1) with every cluster non-empty; rank→cluster
// assignment is otherwise arbitrary — members of a cluster need not be
// contiguous.
type Placement struct {
	clusterOf []int
	members   [][]int
}

// NewPlacement validates and indexes a rank→cluster map.
func NewPlacement(clusterOf []int) Placement {
	if len(clusterOf) == 0 {
		panic("coll: empty placement")
	}
	k := 0
	for _, c := range clusterOf {
		if c < 0 {
			panic("coll: negative cluster index in placement")
		}
		if c+1 > k {
			k = c + 1
		}
	}
	p := Placement{clusterOf: append([]int(nil), clusterOf...), members: make([][]int, k)}
	for r, c := range clusterOf {
		p.members[c] = append(p.members[c], r)
	}
	for c, m := range p.members {
		if len(m) == 0 {
			panic(fmt.Sprintf("coll: placement cluster %d is empty", c))
		}
	}
	return p
}

// NumRanks returns the total rank count.
func (p Placement) NumRanks() int { return len(p.clusterOf) }

// NumClusters returns the cluster count.
func (p Placement) NumClusters() int { return len(p.members) }

// Cluster returns the cluster of rank r.
func (p Placement) Cluster(r int) int { return p.clusterOf[r] }

// Members returns the ranks of cluster c in ascending order.
func (p Placement) Members(c int) []int { return p.members[c] }

// Coordinator returns cluster c's coordinator (its lowest rank).
func (p Placement) Coordinator(c int) int { return p.members[c][0] }

// Block is one logical All-to-All block: the m bytes rank Src owes rank
// Dst. Plans carry blocks so tests can check the permutation; the
// executor only uses counts.
type Block struct{ Src, Dst int }

// hierMsg is one matched message of a plan, annotated with its carried
// blocks and the phase index at which each side posts it.
type hierMsg struct {
	from, to           int
	fromPhase, toPhase int
	tag                int32
	blocks             []Block
}

// planOp is the executor's view of one message end.
type planOp struct {
	peer   int
	tag    int32
	msgIdx int // index into the plan's message list, which sizes the payload
}

// hierPhase groups the operations a rank posts together and then waits
// for. Phases run in order on each rank; there is no global barrier.
type hierPhase struct {
	sends []planOp
	recvs []planOp
}

// HierPlan is a compiled hierarchical collective for one topology.
type HierPlan struct {
	Alg HierAlgorithm
	// Kind is the collective the plan implements. The zero value is
	// KindAlltoall: plans compiled by PlanHierTree are All-to-All plans.
	Kind Kind
	// Place is the leaf-granularity flattening of the topology (leaf
	// index = cluster index), kept for executors and diagnostics.
	Place Placement
	// Tree is the full topology the plan was compiled for.
	Tree    TreePlacement
	perRank [][]hierPhase
	msgs    []*hierMsg // block-annotated message list, for verification
	// vbytes carries each message's total payload bytes when the plan
	// was compiled from a SizeMatrix (PlanHierTreeV), indexed like msgs;
	// nil for uniform plans, whose executor multiplies blocks by m.
	vbytes []int
	// kweights carries each message's payload multiple of m for kinds
	// whose wire bytes are not blocks·m (Allgather forwards one copy
	// per source, Reduce-scatter one partial per destination, rooted
	// relays exactly m); nil for All-to-All plans.
	kweights []int
}

// msgBytesAt returns message i's payload bytes at per-rank size m,
// honoring a bound size matrix (vbytes) or a per-kind weighting
// (kweights); All-to-All plans fall through to blocks·m.
func (p *HierPlan) msgBytesAt(i, m int) int {
	switch {
	case p.vbytes != nil:
		return p.vbytes[i]
	case p.kweights != nil:
		return p.kweights[i] * m
	default:
		return len(p.msgs[i].blocks) * m
	}
}

// NumPhases returns the deepest per-rank phase count of the plan.
func (p *HierPlan) NumPhases() int {
	n := 0
	for _, phases := range p.perRank {
		if len(phases) > n {
			n = len(phases)
		}
	}
	return n
}

// NumMessages returns the plan's total matched message count.
func (p *HierPlan) NumMessages() int { return len(p.msgs) }

// CrossLeafMessages returns how many messages cross leaf-cluster
// boundaries — the coordinator-relayed traffic that rides WAN tiers.
func (p *HierPlan) CrossLeafMessages() int {
	n := 0
	for _, m := range p.msgs {
		if p.Tree.LeafOf(m.from) != p.Tree.LeafOf(m.to) {
			n++
		}
	}
	return n
}

// planBuilder accumulates matched messages into per-rank phase lists.
type planBuilder struct {
	plans [][]hierPhase
	tags  map[[2]int]int32
	msgs  []*hierMsg
}

func newPlanBuilder(n int) *planBuilder {
	return &planBuilder{plans: make([][]hierPhase, n), tags: map[[2]int]int32{}}
}

// phase grows rank r's phase list to include index ph and returns it.
func (b *planBuilder) phase(r, ph int) *hierPhase {
	for len(b.plans[r]) <= ph {
		b.plans[r] = append(b.plans[r], hierPhase{})
	}
	return &b.plans[r][ph]
}

// msg registers a message carrying blocks from rank `from` (posted in
// its phase fromPhase) to rank `to` (received in its phase toPhase).
// Tags are allocated per ordered rank pair in registration order, which
// both sides share because one builder constructs the whole plan.
func (b *planBuilder) msg(from, fromPhase, to, toPhase int, blocks []Block) {
	if len(blocks) == 0 || from == to {
		return
	}
	key := [2]int{from, to}
	tag := tagHier + b.tags[key]
	b.tags[key]++
	m := &hierMsg{from: from, to: to, fromPhase: fromPhase, toPhase: toPhase, tag: tag, blocks: blocks}
	b.msgs = append(b.msgs, m)
	idx := len(b.msgs) - 1
	sp := b.phase(from, fromPhase)
	sp.sends = append(sp.sends, planOp{peer: to, tag: tag, msgIdx: idx})
	rp := b.phase(to, toPhase)
	rp.recvs = append(rp.recvs, planOp{peer: from, tag: tag, msgIdx: idx})
}

// PlanHierTree compiles the hierarchical All-to-All plan for an
// arbitrary topology tree.
func PlanHierTree(spec TreeSpec, alg HierAlgorithm) *HierPlan {
	tp := NewTreePlacement(spec)
	c := &treeCompiler{tp: tp, alg: alg, b: newPlanBuilder(tp.NumRanks())}
	switch alg {
	case HierGather, HierDirect:
		c.build()
	default:
		panic("coll: unknown hierarchical algorithm")
	}
	return &HierPlan{Alg: alg, Place: tp.Placement(), Tree: tp, perRank: c.b.plans, msgs: c.b.msgs}
}

// treeCompiler emits the recursive plan. Both variants share one message
// set — what differs is phase assignment:
//
// HierGather sequences global tiers: phase 0 is the intra-leaf exchange,
// phase 1 the leaf gather, phase 1+h runs tier h (aggregated exchange
// between sibling subtrees plus the upward gather to the tier's
// coordinator), and phase 1+H+d scatters at depth d on the way down.
//
// HierDirect assigns each message its data-dependency level: a send
// forwarding blocks received at level ℓ is posted at level ℓ+1, and
// receives are posted one phase before the rank forwards their content
// (terminal receives as early as safety allows). Leaf non-coordinators
// collapse to a single phase posting everything at once, which is what
// overlaps the local exchange with the coordinator relay.
type treeCompiler struct {
	tp  TreePlacement
	alg HierAlgorithm
	b   *planBuilder
}

func (c *treeCompiler) build() {
	root := c.tp.root
	H := root.height

	// downSend(v): the HierDirect level at which v's owning coordinators
	// forward inbound blocks down to v's children — after the parent-tier
	// exchange (its own participation phase v.height+1 and the sibling
	// send levels, which differ in uneven trees) and the parent's own
	// scatter.
	downSend := map[*pnode]int{}
	var computeDown func(v *pnode)
	computeDown = func(v *pnode) {
		if v.parent != nil {
			lvl := v.height + 1
			for _, a := range v.parent.children {
				if a != v && a.height+1 > lvl {
					lvl = a.height + 1
				}
			}
			if v.parent.parent != nil {
				if d := downSend[v.parent]; d > lvl {
					lvl = d
				}
			}
			downSend[v] = lvl + 1
		}
		for _, ch := range v.children {
			computeDown(ch)
		}
	}
	computeDown(root)

	direct := c.alg == HierDirect

	// Phase selectors per message family. For HierGather both ends share
	// the global tier phase; for HierDirect sends use dependency levels
	// and receives are resolved below (terminal receives need the
	// rank's final send phase, so emission is two-pass).
	type pending struct {
		from, to     int
		fromPhase    int
		toPhase      int  // ≥0 when fixed
		terminalAtTo bool // HierDirect: resolve toPhase to maxSend(to)
		blocks       []Block
	}
	var out []pending
	emit := func(from, fromPhase, to, toPhase int, blocks []Block) {
		if len(blocks) == 0 || from == to {
			return
		}
		out = append(out, pending{from: from, fromPhase: fromPhase, to: to, toPhase: toPhase, blocks: blocks})
	}
	emitTerminal := func(from, fromPhase, to int, blocks []Block) {
		if len(blocks) == 0 || from == to {
			return
		}
		out = append(out, pending{from: from, fromPhase: fromPhase, to: to, toPhase: -1, terminalAtTo: true, blocks: blocks})
	}

	// 1. Intra-leaf exchange: every local ordered pair's block, all
	// posted at once (PostAll style, the shape the contention signature
	// is fitted on). Phase 0 in both variants.
	for _, lf := range c.tp.leaves {
		mem := lf.ranks
		for ki, i := range mem {
			for _, j := range mem[ki+1:] {
				emit(i, 0, j, 0, []Block{{Src: i, Dst: j}})
				emit(j, 0, i, 0, []Block{{Src: j, Dst: i}})
			}
		}
	}

	// 2. Leaf gather: each member hands its remote-bound blocks to the
	// owning leaf coordinator, one message per divergence target —
	// walking ancestors bottom-up, one message per sibling subtree. With
	// C coordinators the targets (and so the gather incast) split
	// round-robin across the set; a coordinator forwards the targets it
	// does not own like any other member.
	for _, lf := range c.tp.leaves {
		for _, i := range lf.ranks {
			for _, sib := range targetsOf(lf) {
				owner := ownerOf(lf, sib)
				if i == owner {
					continue
				}
				var blocks []Block
				for _, j := range sib.ranks {
					blocks = append(blocks, Block{Src: i, Dst: j})
				}
				sp, rp := 1, 1
				if direct {
					sp, rp = 0, 0 // held at start; the owner forwards at level 1
				}
				emit(i, sp, owner, rp, blocks)
			}
		}
	}

	// 3. Upward sweep, tier by tier: aggregated exchange between sibling
	// subtrees plus the upward gather of blocks leaving the tier.
	var groups []*pnode
	var collectGroups func(v *pnode)
	collectGroups = func(v *pnode) {
		for _, ch := range v.children {
			collectGroups(ch)
		}
		if !v.leaf() {
			groups = append(groups, v)
		}
	}
	collectGroups(root)
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].height < groups[j].height })

	// rankPair keys coalesced coordinator-to-coordinator messages.
	type rankPair struct{ from, to int }

	for _, g := range groups {
		// Exchange: one aggregated message per ordered child pair, routed
		// between the owning coordinators of each side (the sender owns
		// the outbound target, the receiver the inbound source).
		for _, a := range g.children {
			for _, bb := range g.children {
				if a == bb {
					continue
				}
				var blocks []Block
				for _, i := range a.ranks {
					for _, j := range bb.ranks {
						blocks = append(blocks, Block{Src: i, Dst: j})
					}
				}
				sp, rp := 1+g.height, 1+g.height
				if direct {
					// Exchange sends and receives are posted together, at
					// each side's own tier level: a rendezvous send only
					// completes once the receive is posted, so delaying
					// the receive past the peer's send phase would
					// deadlock two coordinators against each other.
					sp, rp = a.height+1, bb.height+1
				}
				emit(ownerOf(a, bb), sp, ownerOf(bb, a), rp, blocks)
			}
		}
		// Upward gather: the blocks that leave this tier move from each
		// child's owning coordinator to the tier's, per divergence
		// target of g; messages between one rank pair coalesce, so the
		// default single-coordinator case keeps exactly one aggregated
		// message per child.
		if g.parent == nil {
			continue
		}
		gTargets := targetsOf(g)
		for _, ch := range g.children {
			var order []rankPair
			byPair := map[rankPair][]Block{}
			for _, t := range gTargets {
				p := rankPair{from: ownerOf(ch, t), to: ownerOf(g, t)}
				if p.from == p.to {
					continue
				}
				if _, ok := byPair[p]; !ok {
					order = append(order, p)
				}
				for _, i := range ch.ranks {
					for _, j := range t.ranks {
						byPair[p] = append(byPair[p], Block{Src: i, Dst: j})
					}
				}
			}
			for _, p := range order {
				sp, rp := 1+g.height, 1+g.height
				if direct {
					sp, rp = ch.height+1, g.height
				}
				emit(p.from, sp, p.to, rp, byPair[p])
			}
		}
	}

	// 4. Downward scatter, depth by depth: each subtree coordinator
	// forwards inbound blocks to child coordinators, and leaf
	// coordinators deliver to members.
	var nodes []*pnode
	var collectAll func(v *pnode)
	collectAll = func(v *pnode) {
		nodes = append(nodes, v)
		for _, ch := range v.children {
			collectAll(ch)
		}
	}
	collectAll(root)
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].depth < nodes[j].depth })

	// forwardsAny reports whether the receiver will forward part of the
	// message (some block is addressed past it) — the HierDirect test
	// for a fixed receive level versus a terminal receive.
	forwardsAny := func(blocks []Block, to int) bool {
		for _, b := range blocks {
			if b.Dst != to {
				return true
			}
		}
		return false
	}

	for _, v := range nodes {
		if v.parent == nil {
			continue // the root has no inbound traffic to distribute
		}
		vTargets := targetsOf(v)
		if v.leaf() {
			// Deliver to members: each owning coordinator hands the
			// member the inbound blocks of the targets it owns — one
			// message per (owner, member) pair, so a C-way split leaf
			// scatters through C ports.
			for _, i := range v.ranks {
				var order []int
				byOwner := map[int][]Block{}
				for _, t := range vTargets {
					if deliveredAbove(v, t, i) {
						continue // an upstream relay already handed i these blocks
					}
					o := ownerOf(v, t)
					if _, ok := byOwner[o]; !ok {
						order = append(order, o)
					}
					for _, j := range t.ranks {
						byOwner[o] = append(byOwner[o], Block{Src: j, Dst: i})
					}
				}
				for _, o := range order {
					sp, rp := 1+H+v.depth, 1+H+v.depth
					if direct {
						emitTerminal(o, downSend[v], i, byOwner[o])
						continue
					}
					emit(o, sp, i, rp, byOwner[o])
				}
			}
			continue
		}
		for _, ch := range v.children {
			var order []rankPair
			byPair := map[rankPair][]Block{}
			for _, t := range vTargets {
				p := rankPair{from: ownerOf(v, t), to: ownerOf(ch, t)}
				if p.from == p.to {
					continue
				}
				if _, ok := byPair[p]; !ok {
					order = append(order, p)
				}
				var dsts []int
				for _, d := range ch.ranks {
					if !deliveredAbove(v, t, d) {
						dsts = append(dsts, d)
					}
				}
				for _, j := range t.ranks {
					for _, d := range dsts {
						byPair[p] = append(byPair[p], Block{Src: j, Dst: d})
					}
				}
			}
			for _, p := range order {
				blocks := byPair[p]
				if len(blocks) == 0 {
					continue
				}
				sp, rp := 1+H+v.depth, 1+H+v.depth
				if direct {
					sp = downSend[v]
					if forwardsAny(blocks, p.to) {
						rp = downSend[ch] - 1
						emit(p.from, sp, p.to, rp, blocks)
						continue
					}
					emitTerminal(p.from, sp, p.to, blocks)
					continue
				}
				emit(p.from, sp, p.to, rp, blocks)
			}
		}
	}

	// Resolve terminal receive phases: a receive whose content the rank
	// never forwards is posted once all the rank's sends are out, so a
	// blocked WaitAll can't withhold a message another subtree needs.
	maxSend := make([]int, c.tp.NumRanks())
	for _, m := range out {
		if m.fromPhase > maxSend[m.from] {
			maxSend[m.from] = m.fromPhase
		}
	}
	for _, m := range out {
		ph := m.toPhase
		if m.terminalAtTo {
			ph = maxSend[m.to]
		}
		c.b.msg(m.from, m.fromPhase, m.to, ph, m.blocks)
	}
}
