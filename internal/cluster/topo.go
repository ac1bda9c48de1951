package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Recursive multi-level grid topologies: grids of grids. A TopoNode is
// either a leaf — one cluster built from a Profile — or a group of
// child subtrees joined by a WAN tier with its own latency, bandwidth
// and buffering. A two-level grid is a root group of leaves; real
// deployments add tiers: campus clusters under a national backbone,
// national grids under a continental one. BuildGridTree (grid.go)
// instantiates any such tree as one simulated network, wiring border
// routers per level.

// TopoNode is one node of a grid topology tree. Exactly one of the two
// forms must be populated:
//
//   - leaf: Profile and Nodes set, Children empty — one cluster;
//   - group: Children non-empty, WAN describing the tier that joins the
//     children's border routers.
type TopoNode struct {
	// Name labels the subtree; device names are prefixed by the path of
	// child indices, so Name is informational only.
	Name string

	// Profile and Nodes describe a leaf cluster.
	Profile Profile
	Nodes   int

	// Children and WAN describe a group: subtrees joined by one WAN tier.
	Children []TopoNode
	WAN      WANConfig
}

// Leaf returns a leaf topology node: one cluster of `nodes` hosts built
// from profile p.
func Leaf(p Profile, nodes int) TopoNode {
	return TopoNode{Name: p.Name, Profile: p, Nodes: nodes}
}

// Group returns a group topology node joining children through a WAN tier.
func Group(name string, wan WANConfig, children ...TopoNode) TopoNode {
	return TopoNode{Name: name, Children: children, WAN: wan}
}

// IsLeaf reports whether t is a leaf cluster.
func (t TopoNode) IsLeaf() bool { return len(t.Children) == 0 }

// Validate checks structural consistency of the whole subtree.
func (t TopoNode) Validate() error {
	if t.IsLeaf() {
		if t.Nodes < 1 {
			return fmt.Errorf("cluster: leaf %q has %d nodes", t.Name, t.Nodes)
		}
		if t.Profile.EagerThreshold < 0 {
			return fmt.Errorf("cluster: leaf %q has negative EagerThreshold %d", t.Name, t.Profile.EagerThreshold)
		}
		return nil
	}
	if t.Nodes != 0 {
		return fmt.Errorf("cluster: group %q sets Nodes", t.Name)
	}
	for _, c := range t.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalNodes sums host counts over the subtree.
func (t TopoNode) TotalNodes() int {
	if t.IsLeaf() {
		return t.Nodes
	}
	total := 0
	for _, c := range t.Children {
		total += c.TotalNodes()
	}
	return total
}

// Height returns the number of WAN tiers above the deepest leaf: 0 for
// a single cluster, 1 for a two-level grid, 2 for a 3-level grid.
func (t TopoNode) Height() int {
	h := 0
	for _, c := range t.Children {
		if ch := c.Height() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// NumLeaves counts the leaf clusters of the subtree.
func (t TopoNode) NumLeaves() int {
	if t.IsLeaf() {
		return 1
	}
	n := 0
	for _, c := range t.Children {
		n += c.NumLeaves()
	}
	return n
}

// Leaves returns the leaf clusters of the subtree in tree order — the
// order BuildGridTree assigns host (and MPI rank) blocks.
func (t TopoNode) Leaves() []TopoNode {
	if t.IsLeaf() {
		return []TopoNode{t}
	}
	var out []TopoNode
	for _, c := range t.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Tree converts a flat two-level GridProfile into its topology tree: a
// root group whose children are the member clusters, for BuildGridTree
// — the one recursive build path of every grid.
func (gp GridProfile) Tree() TopoNode {
	root := TopoNode{Name: gp.Name, WAN: gp.WAN}
	for _, m := range gp.Members {
		root.Children = append(root.Children, Leaf(m.Profile, m.Nodes))
	}
	return root
}

// ThreeLevel builds a uniform 3-level topology: `tops` groups of `mids`
// clusters of `nodesPer` nodes each, clusters joined by wanLow inside a
// group and groups joined by wanHigh — the campus → national →
// continental shape.
func ThreeLevel(name string, p Profile, tops, mids, nodesPer int, wanLow, wanHigh WANConfig) TopoNode {
	root := TopoNode{Name: name, WAN: wanHigh}
	for g := 0; g < tops; g++ {
		grp := TopoNode{Name: fmt.Sprintf("%s-g%d", name, g), WAN: wanLow}
		for c := 0; c < mids; c++ {
			grp.Children = append(grp.Children, Leaf(p, nodesPer))
		}
		root.Children = append(root.Children, grp)
	}
	return root
}

// GridTrees returns canonical multi-level grid environments keyed by
// name: 3-level campus → national → continental topologies over the
// paper's platforms, WAN-tuned as GridProfiles are.
func GridTrees() map[string]TopoNode {
	ge := WANTuned(GigabitEthernet())
	fe := WANTuned(FastEthernet())

	// Campus tier: metropolitan 10 ms links; continental tier: 50 ms
	// with a fatter, star-routed backbone.
	campus := DefaultWAN(10 * sim.Millisecond)
	continental := DefaultWAN(50 * sim.Millisecond)
	continental.Rate = 125_000_000 // 1 Gbit/s backbone
	continental.Mesh = false

	// Heterogeneous NIC headroom: every campus cluster's lowest rank
	// sits on a legacy 100 Mb access port while the rest keep full
	// Gigabit headroom — the canonical fixture for bandwidth-aware
	// coordinator selection, where the default lowest-rank coordinator
	// is exactly the wrong relay for the gather incast.
	hg := ge
	hg.Name = "gigabit-ethernet-mixed-nics"
	hg.NodeLinkRates = []int64{12_500_000}

	out := map[string]TopoNode{}
	for _, t := range []TopoNode{
		ThreeLevel("ge-3lvl", ge, 2, 2, 4, campus, continental),
		ThreeLevel("fe-3lvl", fe, 2, 2, 5, campus, DefaultWAN(30*sim.Millisecond)),
		ThreeLevel("hetero-3lvl", hg, 2, 2, 4, campus, DefaultWAN(40*sim.Millisecond)),
		// Uneven continental grid: one national grid of two campuses
		// next to one flat cluster reachable only over the backbone.
		Group("mixed-3lvl", continental,
			Group("mixed-3lvl-eu", campus, Leaf(ge, 6), Leaf(ge, 4)),
			Leaf(fe, 8),
		),
	} {
		out[t.Name] = t
	}
	return out
}

// TreeByName returns the named canonical grid tree.
func TreeByName(name string) (TopoNode, error) {
	t, ok := GridTrees()[name]
	if !ok {
		return TopoNode{}, fmt.Errorf("cluster: unknown grid tree %q", name)
	}
	return t, nil
}
