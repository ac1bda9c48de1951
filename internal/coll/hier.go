package coll

import (
	"errors"
	"fmt"
	"slices"
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
// beyond. One recursive plan builder covers every depth.
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
}

func (v *pnode) leaf() bool { return len(v.children) == 0 }

// has reports whether rank r belongs to v's subtree.
func (v *pnode) has(r int) bool {
	_, ok := slices.BinarySearch(v.ranks, r)
	return ok
}

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

// TreePlacement maps ranks onto a compiled topology tree: leaves are
// clusters, inner nodes are WAN tiers.
type TreePlacement struct {
	root   *pnode
	leaves []*pnode
	leafOf []int // rank → leaf index
}

// newTreePlacement validates and compiles a topology spec; a malformed
// one is an error naming the offender (see Compile).
func newTreePlacement(spec TreeSpec) (TreePlacement, error) {
	var tp TreePlacement
	root, err := tp.compile(spec, nil, 0)
	if err != nil {
		return TreePlacement{}, err
	}
	tp.root = root
	n := len(root.ranks)
	tp.leafOf = make([]int, n)
	for i := range tp.leafOf {
		tp.leafOf[i] = -1
	}
	for li, lf := range tp.leaves {
		for _, r := range lf.ranks {
			if r < 0 || r >= n {
				return TreePlacement{}, fmt.Errorf("coll: rank %d outside dense range 0..%d", r, n-1)
			}
			if tp.leafOf[r] != -1 {
				return TreePlacement{}, fmt.Errorf("coll: rank %d appears twice in the topology", r)
			}
			tp.leafOf[r] = li
		}
	}
	return tp, nil
}

// compile recursively builds pnodes, assigning leaf indices in spec
// order and computing subtree rank sets, heights and depths.
func (tp *TreePlacement) compile(spec TreeSpec, parent *pnode, depth int) (*pnode, error) {
	v := &pnode{parent: parent, depth: depth}
	switch {
	case len(spec.Ranks) > 0 && len(spec.Children) > 0:
		return nil, errors.New("coll: tree node has both ranks and children")
	case len(spec.Ranks) > 0:
		v.ranks = append([]int(nil), spec.Ranks...)
		tp.leaves = append(tp.leaves, v)
	case len(spec.Children) > 0:
		for _, cs := range spec.Children {
			c, err := tp.compile(cs, v, depth+1)
			if err != nil {
				return nil, err
			}
			v.children = append(v.children, c)
			v.ranks = append(v.ranks, c.ranks...)
			v.height = max(v.height, c.height+1)
		}
	default:
		return nil, errors.New("coll: tree node has neither ranks nor children")
	}
	sort.Ints(v.ranks)
	v.coords = []int{v.ranks[0]}
	if len(spec.Coords) > 0 {
		v.coords = append([]int(nil), spec.Coords...)
	}
	for i, cr := range v.coords {
		if !v.has(cr) {
			return nil, fmt.Errorf("coll: coordinator %d is not a rank of its subtree", cr)
		}
		if slices.Contains(v.coords[:i], cr) {
			return nil, fmt.Errorf("coll: coordinator %d named twice", cr)
		}
	}
	v.standbys = append([]int(nil), spec.Standbys...)
	for _, sr := range v.standbys {
		if !v.has(sr) {
			return nil, fmt.Errorf("coll: standby %d is not a rank of its subtree", sr)
		}
	}
	return v, nil
}

// NumRanks returns the total rank count.
func (tp TreePlacement) NumRanks() int { return len(tp.leafOf) }

// NumLeaves returns the number of leaf clusters.
func (tp TreePlacement) NumLeaves() int { return len(tp.leaves) }

// LeafMembers returns the ranks of leaf l in ascending order.
func (tp TreePlacement) LeafMembers(l int) []int { return tp.leaves[l].ranks }

// Coordinators returns leaf l's coordinator set in ownership order
// (divergence target k is owned by entry k mod C). The default set is
// the leaf's lowest rank.
func (tp TreePlacement) Coordinators(l int) []int {
	return append([]int(nil), tp.leaves[l].coords...)
}

// Height returns the root height: 0 for a single cluster, 1 for a
// two-level grid, 2 for campus → national → continental, and so on.
func (tp TreePlacement) Height() int { return tp.root.height }

// Block is one logical All-to-All block: the m bytes rank Src owes rank
// Dst. Plans carry blocks so tests can check the permutation; the
// executor only uses the byte count the payload rule derived from them.
type Block struct{ Src, Dst int }

// cross returns the blocks srcs × dsts in src-major order.
func cross(srcs, dsts []int) []Block {
	out := make([]Block, 0, len(srcs)*len(dsts))
	for _, i := range srcs {
		for _, j := range dsts {
			out = append(out, Block{Src: i, Dst: j})
		}
	}
	return out
}

// hierMsg is one matched message of a plan: its endpoints, the phase
// index at which each side posts it, the blocks it carries and the
// payload bytes Workload.msgBytes sized them to.
type hierMsg struct {
	from, to           int
	fromPhase, toPhase int
	tag                int32
	blocks             []Block
	bytes              int
}

// hierPhase groups the messages (indices into the plan's message list)
// a rank posts together and then waits for. Phases run in order on each
// rank; there is no global barrier.
type hierPhase struct {
	sends []int
	recvs []int
}

// HierPlan is a compiled hierarchical collective for one topology and
// one workload.
type HierPlan struct {
	Alg HierAlgorithm
	// Workload is the collective the plan implements and the sizes its
	// messages were compiled to.
	Workload Workload
	// Tree is the full topology the plan was compiled for.
	Tree    TreePlacement
	perRank [][]hierPhase
	msgs    []*hierMsg // block-annotated message list, sized by the payload rule
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
		if p.Tree.leafOf[m.from] != p.Tree.leafOf[m.to] {
			n++
		}
	}
	return n
}

// planBuilder accumulates matched messages into per-rank phase lists,
// sizing each by the workload's payload rule.
type planBuilder struct {
	w Workload
	// keep, when set, restricts every message to the blocks it admits —
	// a failover recovery epoch carries only live, undelivered blocks.
	keep  func(Block) bool
	plans [][]hierPhase
	tags  map[[2]int]int32
	msgs  []*hierMsg
}

// phase grows rank r's phase list to include index ph and returns it.
func (b *planBuilder) phase(r, ph int) *hierPhase {
	for len(b.plans[r]) <= ph {
		b.plans[r] = append(b.plans[r], hierPhase{})
	}
	return &b.plans[r][ph]
}

// msg registers a message carrying blocks from rank `from` (posted in
// its phase fromPhase) to rank `to` (received in its phase toPhase). A
// message the payload rule sizes to zero units does not exist: neither
// end gets an operation for it. Tags are allocated per ordered rank
// pair in registration order — before the existence check, so they
// depend on the topology alone — which both sides share because one
// builder constructs the whole plan.
func (b *planBuilder) msg(from, fromPhase, to, toPhase int, blocks []Block) {
	key := [2]int{from, to}
	tag := tagHier + b.tags[key]
	b.tags[key]++
	if b.keep != nil {
		kept := make([]Block, 0, len(blocks))
		for _, blk := range blocks {
			if b.keep(blk) {
				kept = append(kept, blk)
			}
		}
		blocks = kept
	}
	bytes, exists := b.w.msgBytes(blocks...)
	if !exists {
		return
	}
	idx := len(b.msgs)
	b.msgs = append(b.msgs, &hierMsg{from: from, to: to, fromPhase: fromPhase, toPhase: toPhase,
		tag: tag, blocks: blocks, bytes: bytes})
	sp := b.phase(from, fromPhase)
	sp.sends = append(sp.sends, idx)
	rp := b.phase(to, toPhase)
	rp.recvs = append(rp.recvs, idx)
}

// Compile compiles the hierarchical plan of one workload over a
// topology tree — the one compile entry of every kind. All-to-All(v),
// Allgather and Reduce-scatter share the recursive coordinator-relay
// message set (compileTree); Broadcast, Reduce and Allreduce relay
// through the same tree's delegates, rooted at rank 0 (compileRooted).
// What the workload changes is how many bytes each message carries, and
// whether it exists at all (Workload.msgBytes). It errors on an unknown
// algorithm, a malformed spec — a node with both or neither of Ranks
// and Children, ranks that do not cover 0..n−1 exactly once, a
// coordinator or standby outside its subtree, a coordinator named twice
// — or a workload that does not fit the spec's rank count
// (Workload.Validate), naming the offender: specs arrive from planners
// and callers, not only from code.
func Compile(spec TreeSpec, w Workload, alg HierAlgorithm) (*HierPlan, error) {
	return compile(spec, w, alg, nil)
}

// compile is Compile restricted to the blocks keep admits (nil admits
// all) — the form failover recovery epochs compile through.
func compile(spec TreeSpec, w Workload, alg HierAlgorithm, keep func(Block) bool) (*HierPlan, error) {
	if alg != HierGather && alg != HierDirect {
		return nil, fmt.Errorf("coll: unknown hierarchical algorithm %d", int(alg))
	}
	tp, err := newTreePlacement(spec)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(tp.NumRanks()); err != nil {
		return nil, err
	}
	b := &planBuilder{w: w, keep: keep, plans: make([][]hierPhase, tp.NumRanks()), tags: map[[2]int]int32{}}
	if w.Kind.relayed() {
		compileRooted(tp, w.Kind, b)
	} else {
		compileTree(tp, alg == HierDirect, b)
	}
	return &HierPlan{Alg: alg, Workload: w, Tree: tp, perRank: b.plans, msgs: b.msgs}, nil
}

// rankPair keys coalesced coordinator-to-coordinator messages.
type rankPair struct{ from, to int }

// relays coalesces blocks by the rank pair that carries them, in
// first-seen pair order: several divergence targets owned by the same
// two coordinators travel as one aggregated message, so the default
// single-coordinator case keeps exactly one message per child subtree.
type relays struct {
	order  []rankPair
	blocks map[rankPair][]Block
}

// add routes blocks over the pair from → to.
func (rl *relays) add(from, to int, blocks []Block) {
	if rl.blocks == nil {
		rl.blocks = map[rankPair][]Block{}
	}
	p := rankPair{from: from, to: to}
	if _, ok := rl.blocks[p]; !ok {
		rl.order = append(rl.order, p)
	}
	rl.blocks[p] = append(rl.blocks[p], blocks...)
}

// terminal marks a HierDirect receive whose content its rank never
// forwards: its phase is resolved once every send level is known.
const terminal = -1

// compileTree emits the recursive coordinator-relay plan. Both variants
// share one message set — what differs is phase assignment:
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
func compileTree(tp TreePlacement, direct bool, b *planBuilder) {
	root := tp.root
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

	// Emission is two-pass: for HierGather both ends share the global
	// tier phase; for HierDirect sends use dependency levels and a
	// terminal receive needs its rank's final send phase, known only
	// once every message is out. A rank never messages itself (a
	// coordinator already holds the blocks it owns) and an empty relay
	// does not exist; this is the one place that says so.
	var out []hierMsg
	emit := func(from, fromPhase, to, toPhase int, blocks []Block) {
		if len(blocks) == 0 || from == to {
			return
		}
		out = append(out, hierMsg{from: from, fromPhase: fromPhase, to: to, toPhase: toPhase, blocks: blocks})
	}
	// tier picks a message's phases: gather on both ends under
	// HierGather, the given send/receive levels under HierDirect.
	tier := func(gather, sendLvl, recvLvl int) (int, int) {
		if direct {
			return sendLvl, recvLvl
		}
		return gather, gather
	}

	// 1. Intra-leaf exchange: every local ordered pair's block, all
	// posted at once (PostAll style, the shape the contention signature
	// is fitted on). Phase 0 in both variants.
	for _, lf := range tp.leaves {
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
	// does not own like any other member. Under HierDirect the blocks
	// are held at start and the owner forwards at level 1.
	for _, lf := range tp.leaves {
		for _, i := range lf.ranks {
			for _, sib := range targetsOf(lf) {
				sp, rp := tier(1, 0, 0)
				emit(i, sp, ownerOf(lf, sib), rp, cross([]int{i}, sib.ranks))
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

	for _, g := range groups {
		// Exchange: one aggregated message per ordered child pair, routed
		// between the owning coordinators of each side (the sender owns
		// the outbound target, the receiver the inbound source). Under
		// HierDirect its sends and receives are posted together, at each
		// side's own tier level: a rendezvous send only completes once
		// the receive is posted, so delaying the receive past the peer's
		// send phase would deadlock two coordinators against each other.
		for _, a := range g.children {
			for _, bb := range g.children {
				if a == bb {
					continue
				}
				sp, rp := tier(1+g.height, a.height+1, bb.height+1)
				emit(ownerOf(a, bb), sp, ownerOf(bb, a), rp, cross(a.ranks, bb.ranks))
			}
		}
		// Upward gather: the blocks that leave this tier move from each
		// child's owning coordinator to the tier's, per divergence
		// target of g.
		if g.parent == nil {
			continue
		}
		gTargets := targetsOf(g)
		for _, ch := range g.children {
			var up relays
			for _, t := range gTargets {
				up.add(ownerOf(ch, t), ownerOf(g, t), cross(ch.ranks, t.ranks))
			}
			for _, p := range up.order {
				sp, rp := tier(1+g.height, ch.height+1, g.height)
				emit(p.from, sp, p.to, rp, up.blocks[p])
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
				var down relays
				for _, t := range vTargets {
					if deliveredAbove(v, t, i) {
						continue // an upstream relay already handed i these blocks
					}
					down.add(ownerOf(v, t), i, cross(t.ranks, []int{i}))
				}
				for _, p := range down.order {
					sp, rp := tier(1+H+v.depth, downSend[v], terminal)
					emit(p.from, sp, p.to, rp, down.blocks[p])
				}
			}
			continue
		}
		for _, ch := range v.children {
			var down relays
			for _, t := range vTargets {
				var dsts []int
				for _, d := range ch.ranks {
					if !deliveredAbove(v, t, d) {
						dsts = append(dsts, d)
					}
				}
				down.add(ownerOf(v, t), ownerOf(ch, t), cross(t.ranks, dsts))
			}
			for _, p := range down.order {
				blocks := down.blocks[p]
				// Under HierDirect a receiver that forwards part of the
				// message (some block is addressed past it) takes it one
				// level before its own scatter; otherwise the receive is
				// terminal.
				recvLvl := terminal
				if slices.ContainsFunc(blocks, func(b Block) bool { return b.Dst != p.to }) {
					recvLvl = downSend[ch] - 1
				}
				sp, rp := tier(1+H+v.depth, downSend[v], recvLvl)
				emit(p.from, sp, p.to, rp, blocks)
			}
		}
	}

	// Resolve terminal receive phases: a receive whose content the rank
	// never forwards is posted once all the rank's sends are out, so a
	// blocked WaitAll can't withhold a message another subtree needs.
	maxSend := make([]int, tp.NumRanks())
	for _, m := range out {
		maxSend[m.from] = max(maxSend[m.from], m.fromPhase)
	}
	for _, m := range out {
		if m.toPhase == terminal {
			m.toPhase = maxSend[m.to]
		}
		b.msg(m.from, m.fromPhase, m.to, m.toPhase, m.blocks)
	}
}
