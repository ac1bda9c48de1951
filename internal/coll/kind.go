package coll

import "fmt"

// The collective suite on TreeSpec. Besides the hierarchical
// All-to-All(v), Compile routes the other collectives a grid schedules —
// Allgather, Broadcast, Reduce, Reduce-scatter, Allreduce — through the
// same coordinator trees (the MagPIe/LaPIe per-collective wide-area
// plans): every kind reuses the rendezvous-safe phase machinery, the
// coordinator sets and standbys, and the block-annotated exactly-once
// verification; what changes per kind is the block flow and how many
// bytes each message carries (Workload.msgBytes).
//
// Allgather and Reduce-scatter are the gather/scatter halves of the
// All-to-All structure: the message set and phases are identical, but a
// message's payload collapses to one m-byte contribution per distinct
// source (Allgather forwards each source's block once) or per distinct
// destination (Reduce-scatter combines partial sums addressed to the
// same rank). Broadcast and Reduce are rooted relays over the same
// tree's delegates, and Allreduce is Reduce∘Broadcast over that relay —
// the reduction converges on the root, then the result fans back out.

// Kind identifies a collective operation of the suite. The zero value
// is KindAlltoall, so plans compiled before the suite existed keep
// their meaning.
type Kind int

const (
	// KindAlltoall is the uniform All-to-All: every rank owes every
	// other rank m bytes.
	KindAlltoall Kind = iota
	// KindAlltoallv is the irregular All-to-All over a SizeMatrix
	// (Workload.Sizes).
	KindAlltoallv
	// KindAllgather delivers every rank's m-byte contribution to every
	// rank.
	KindAllgather
	// KindBroadcast delivers the root's m bytes to every rank.
	KindBroadcast
	// KindReduce combines every rank's m-byte contribution at the root.
	KindReduce
	// KindReduceScatter combines contributions and leaves each rank its
	// own m-byte share of the result.
	KindReduceScatter
	// KindAllreduce combines every contribution and delivers the m-byte
	// result to every rank (Reduce∘Broadcast).
	KindAllreduce
)

// Kinds lists the suite in a stable order.
var Kinds = []Kind{
	KindAlltoall, KindAlltoallv, KindAllgather, KindBroadcast,
	KindReduce, KindReduceScatter, KindAllreduce,
}

// String names the kind as used in flags, store keys and spans.
func (k Kind) String() string {
	switch k {
	case KindAlltoall:
		return "alltoall"
	case KindAlltoallv:
		return "alltoallv"
	case KindAllgather:
		return "allgather"
	case KindBroadcast:
		return "broadcast"
	case KindReduce:
		return "reduce"
	case KindReduceScatter:
		return "reduce-scatter"
	case KindAllreduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("coll: unknown collective kind %q", s)
}

// rooted reports whether the kind has a distinguished root rank
// (Broadcast and Reduce; plans fix it at rank 0).
func (k Kind) rooted() bool { return k == KindBroadcast || k == KindReduce }

// relayed reports whether the kind's plan is the rooted delegate relay
// (Broadcast, Reduce and their composition Allreduce) rather than the
// All-to-All-shaped coordinator exchange.
func (k Kind) relayed() bool { return k.rooted() || k == KindAllreduce }

// PlanKindTree is Compile for a uniform kind at M = 0, panicking on the
// errors Compile returns. It exists because bench/ calls it by name to
// count a plan's messages and phases, which do not depend on M.
func PlanKindTree(spec TreeSpec, kind Kind, alg HierAlgorithm) *HierPlan {
	p, err := Compile(spec, Uniform(kind, 0), alg)
	if err != nil {
		panic(err)
	}
	return p
}

// distinct counts the distinct values key takes over blocks.
func distinct(blocks []Block, key func(Block) int) int {
	seen := make(map[int]bool, len(blocks))
	for _, b := range blocks {
		seen[key(b)] = true
	}
	return len(seen)
}

// relayEdge is one hop of the rooted delegate relay: parent holds the
// payload (or receives the partial) for the subtree whose ranks are
// covers, child is the subtree's delegate. Levels count from the root's
// sends (level 0); broadcast runs edges top-down, reduce bottom-up.
type relayEdge struct {
	parent, child int
	level         int
	covers        []int
}

// relayTree builds the delegate relay of a compiled topology rooted at
// rank root: at each node the current holder forwards to every child
// subtree's delegate — the holder itself when the subtree contains it,
// else the subtree's first coordinator (so selected inner-tier and leaf
// coordinator sets steer the relay) — and leaves fan out to members.
func relayTree(tp TreePlacement, root int) []relayEdge {
	var edges []relayEdge
	delegate := func(v *pnode, src int) int {
		if v.has(src) {
			return src
		}
		return v.coords[0]
	}
	var build func(v *pnode, src, level int)
	build = func(v *pnode, src, level int) {
		if v.leaf() {
			for _, r := range v.ranks {
				if r != src {
					edges = append(edges, relayEdge{parent: src, child: r, level: level, covers: []int{r}})
				}
			}
			return
		}
		for _, c := range v.children {
			d := delegate(c, src)
			if d != src {
				edges = append(edges, relayEdge{parent: src, child: d, level: level, covers: c.ranks})
			}
			build(c, d, level+1)
		}
	}
	build(tp.root, root, 0)
	return edges
}

// compileRooted emits Broadcast, Reduce, or their composition
// Allreduce over the topology's delegate relay, rooted at rank 0. Every
// message carries exactly m bytes (a broadcast payload is replicated, a
// reduction forwards one combined partial), and both algorithm variants
// share the one phase layout.
//
// Broadcast edges run top-down: a level-ℓ hop is received in phase ℓ
// and forwarded in phase ℓ+1, so each rank's own phase order encodes
// the data dependency. Reduce mirrors the relay bottom-up: a level-ℓ
// hop sends in phase L−ℓ after its children's partials arrived in
// L−ℓ−1. Allreduce appends the broadcast phases after the reduce ones.
// Blocks carry the delivery obligations the failover runtime and the
// property tests verify: (src → root) per contribution on the way up,
// (root → dst) per result copy on the way down, each delivered exactly
// once at its terminal rank.
func compileRooted(tp TreePlacement, kind Kind, b *planBuilder) {
	const root = 0
	edges := relayTree(tp, root)
	maxLevel := 0
	for _, e := range edges {
		maxLevel = max(maxLevel, e.level)
	}
	bcastOff := 0
	if kind != KindBroadcast { // Reduce, and Allreduce's first half
		for _, e := range edges {
			ph := maxLevel - e.level
			b.msg(e.child, ph, e.parent, ph, cross(e.covers, []int{root}))
		}
		bcastOff = maxLevel + 1
	}
	if kind != KindReduce { // Broadcast, and Allreduce's second half
		for _, e := range edges {
			ph := bcastOff + e.level
			b.msg(e.parent, ph, e.child, ph, cross([]int{root}, e.covers))
		}
	}
}

// universe returns the plan's delivery obligations: the deduplicated
// union of all carried blocks. For All-to-All this is every ordered
// rank pair; rooted kinds restrict it to the blocks their flow defines.
func (p *HierPlan) universe() []Block {
	seen := make(map[Block]bool)
	var out []Block
	for _, m := range p.msgs {
		for _, b := range m.blocks {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}
