// Grid environments: several cluster Profiles composed into one
// simulated multi-cluster platform, joined by wide-area links through
// per-cluster border routers. This is the paper's natural
// production-scale extension: All-to-All across a grid, where every
// inter-cluster block crosses a shared, high-latency WAN uplink and flat
// Direct Exchange collapses.
package cluster

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// GridMember is one cluster of a grid: a profile plus its node count.
type GridMember struct {
	Profile Profile
	Nodes   int
}

// WANConfig describes the wide-area interconnect between the border
// routers of a grid.
type WANConfig struct {
	Rate    int64    // bytes/s per WAN link direction
	Latency sim.Time // one-way propagation per WAN link

	// PortBuffer is the router WAN egress buffer (tail-drop). Shallow
	// buffers relative to the bandwidth-delay product are what make the
	// uplink the grid's contention point.
	PortBuffer int

	// ProcDelay is the per-packet router forwarding delay.
	ProcDelay sim.Time

	// Mesh selects full-mesh router-to-router WAN links; false builds a
	// star through one backbone router (each inter-cluster path then
	// crosses two WAN links).
	Mesh bool
}

// DefaultWAN returns a 100 Mbit/s WAN with the given one-way latency,
// shallow router buffers and full-mesh peering.
func DefaultWAN(latency sim.Time) WANConfig {
	return WANConfig{
		Rate:       12_500_000, // 100 Mbit/s
		Latency:    latency,
		PortBuffer: 256 << 10,
		ProcDelay:  50 * sim.Microsecond,
		Mesh:       true,
	}
}

// GridProfile names a buildable multi-cluster environment. All member
// profiles must share one transport kind and one eager threshold; the
// first member's transport tuning is used fabric-wide.
type GridProfile struct {
	Name    string
	Members []GridMember
	WAN     WANConfig
}

// TotalNodes sums the member node counts.
func (gp GridProfile) TotalNodes() int {
	total := 0
	for _, m := range gp.Members {
		total += m.Nodes
	}
	return total
}

// Uniform builds a symmetric GridProfile: clusters copies of p with
// nodesPer nodes each.
func Uniform(name string, p Profile, clusters, nodesPer int, wan WANConfig) GridProfile {
	gp := GridProfile{Name: name, WAN: wan}
	for c := 0; c < clusters; c++ {
		gp.Members = append(gp.Members, GridMember{Profile: p, Nodes: nodesPer})
	}
	return gp
}

// WANTuned widens a profile's TCP receive window for long-fat WAN pipes
// (the real-world "window scaling" tuning a grid deployment would apply).
// Every canonical grid environment and grid-facing example uses it.
func WANTuned(p Profile) Profile {
	p.TCP.RcvWindow = 256 << 10
	return p
}

// GridProfiles returns canonical grid environments keyed by name:
// the paper's platforms composed over 10–100 ms WANs.
func GridProfiles() map[string]GridProfile {
	fe := WANTuned(FastEthernet())
	ge := WANTuned(GigabitEthernet())
	out := map[string]GridProfile{}
	for _, gp := range []GridProfile{
		Uniform("fe2-wan20", fe, 2, 8, DefaultWAN(20*sim.Millisecond)),
		Uniform("ge3-wan50", ge, 3, 8, func() WANConfig {
			w := DefaultWAN(50 * sim.Millisecond)
			w.Rate = 125_000_000 // 1 Gbit/s backbone
			w.Mesh = false
			return w
		}()),
		{
			Name: "mixed-wan30",
			Members: []GridMember{
				{Profile: fe, Nodes: 10},
				{Profile: ge, Nodes: 6},
			},
			WAN: DefaultWAN(30 * sim.Millisecond),
		},
	} {
		out[gp.Name] = gp
	}
	return out
}

// GridByName returns the named canonical grid profile.
func GridByName(name string) (GridProfile, error) {
	gp, ok := GridProfiles()[name]
	if !ok {
		return GridProfile{}, fmt.Errorf("cluster: unknown grid profile %q", name)
	}
	return gp, nil
}

// Grid is a built multi-level grid environment. Env carries the shared
// simulator, network and full-mesh transport fabric over every host of
// every leaf cluster, so mpi.NewWorld works on a grid exactly as on a
// single cluster.
type Grid struct {
	// Tree is the topology the grid was built from.
	Tree TopoNode
	// Env is the shared environment (simulator, network, fabric).
	Env *Cluster
	// ClusterOf maps host/rank id → leaf index (tree order).
	ClusterOf []int
	// Members maps leaf index → host/rank ids (contiguous).
	Members [][]int
	// Routers holds each leaf cluster's border router, in leaf order.
	Routers []*netsim.Device
}

// treeBuilder carries shared state across the recursive grid build.
type treeBuilder struct {
	nw    *netsim.Network
	g     *Grid
	hosts []*netsim.Device   // all hosts, rank order
	perLf [][]*netsim.Device // hosts per leaf
	gwLf  []*netsim.Device   // border router per leaf
	leafI int                // leaf cursor during wiring
}

// BuildGridTree instantiates a multi-level grid topology. Host NodeIDs
// (and therefore MPI ranks) are assigned contiguously leaf by leaf in
// tree order. Each leaf gets a border router on its parent tier; each
// group tier joins its children's gateways either in a full mesh or in
// a star through a tier backbone router, and exposes one gateway (the
// first child's for a mesh, the backbone for a star) to the tier above.
// Leaves must share one eager threshold (Profile.Eager), recorded on Env.
func BuildGridTree(root TopoNode, seed int64) (*Grid, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	leaves := root.Leaves()
	kind := leaves[0].Profile.Kind
	if !root.IsLeaf() && kind != transport.TCP {
		// WAN ports are tail-drop; a transport without retransmission
		// (GM relies on a lossless fabric) would hang on the first
		// dropped segment.
		return nil, fmt.Errorf("cluster: grid %q needs a retransmitting transport, got %v", root.Name, kind)
	}
	eager := leaves[0].Profile.Eager()
	for _, lf := range leaves {
		if lf.Profile.Kind != kind {
			return nil, fmt.Errorf("cluster: grid %q mixes transport kinds %v and %v",
				root.Name, kind, lf.Profile.Kind)
		}
		if lf.Profile.Eager() != eager {
			return nil, fmt.Errorf("cluster: grid %q mixes eager thresholds %d and %d",
				root.Name, eager, lf.Profile.Eager())
		}
	}

	s := sim.New(seed)
	b := &treeBuilder{nw: netsim.New(s), g: &Grid{Tree: root}}

	// Hosts first, leaf by leaf, so NodeIDs are dense and grouped.
	for c, lf := range leaves {
		ids := make([]int, lf.Nodes)
		devs := make([]*netsim.Device, lf.Nodes)
		prefix := leafPrefix(root, c)
		for i := 0; i < lf.Nodes; i++ {
			h := b.nw.AddHost(fmt.Sprintf("%s%s-n%d", prefix, lf.Profile.Name, i))
			devs[i] = h
			ids[i] = len(b.hosts)
			b.hosts = append(b.hosts, h)
			b.g.ClusterOf = append(b.g.ClusterOf, c)
		}
		b.perLf = append(b.perLf, devs)
		b.g.Members = append(b.g.Members, ids)
	}

	// Intra-cluster fabrics plus per-level WAN wiring.
	if root.IsLeaf() {
		buildLAN(b.nw, root.Profile, b.perLf[0], "")
	} else {
		b.wire(root, "", nil)
	}
	b.nw.ComputeRoutes()

	// Every host keeps one connection per remote rank, grid-wide.
	total := len(b.hosts)
	for c, lf := range leaves {
		applyRxCost(lf.Profile, b.perLf[c], total)
	}

	first := leaves[0].Profile
	fab := transport.NewFabric(b.nw, b.hosts, transport.FabricConfig{Kind: kind, TCP: first.TCP, GM: first.GM})
	b.g.Routers = b.gwLf
	b.g.Env = &Cluster{Sim: s, Net: b.nw, Hosts: b.hosts, Fabric: fab, EagerThreshold: eager}
	return b.g, nil
}

// leafPrefix names the leaf at index li by its path of child indices
// ("c0.", or "c1.c0." at depth 2), matching the wiring prefixes.
func leafPrefix(root TopoNode, li int) string {
	prefix, n := "", 0
	var walk func(t TopoNode, p string) bool
	walk = func(t TopoNode, p string) bool {
		if t.IsLeaf() {
			if n == li {
				prefix = p
				return true
			}
			n++
			return false
		}
		for i, c := range t.Children {
			if walk(c, fmt.Sprintf("%sc%d.", p, i)) {
				return true
			}
		}
		return false
	}
	walk(root, "")
	return prefix
}

// wire recursively builds the subtree rooted at t (a group when called
// with children, a leaf otherwise) and returns its upward gateway. wan
// is the WAN tier the subtree's gateway faces (its parent group's), nil
// for the root.
func (b *treeBuilder) wire(t TopoNode, prefix string, wan *WANConfig) *netsim.Device {
	if t.IsLeaf() {
		p := t.Profile
		attach := buildLAN(b.nw, p, b.perLf[b.leafI], prefix)
		b.leafI++
		gw := b.nw.AddRouter(prefix+"gw", netsim.RouterConfig{ProcDelay: wan.ProcDelay})
		accessRate, accessLat := p.UplinkRate, p.UplinkLatency
		if accessRate == 0 {
			accessRate, accessLat = p.LinkRate, p.LinkLatency
		}
		access := netsim.LinkConfig{Rate: accessRate, Latency: accessLat}
		attachBuf := p.CorePortBuffer
		if attachBuf == 0 {
			attachBuf = p.PortBuffer
		}
		b.nw.ConnectPorts(attach, gw, access, access,
			netsim.PortConfig{Buffer: attachBuf, Lossless: p.Lossless},
			netsim.PortConfig{Buffer: 1 << 20})
		b.gwLf = append(b.gwLf, gw)
		return gw
	}

	// Children first (leaves claim their gateways in leaf order), then
	// this tier's wide-area peering: full mesh, or a star through a
	// tier backbone router.
	gws := make([]*netsim.Device, len(t.Children))
	for i, c := range t.Children {
		gws[i] = b.wire(c, fmt.Sprintf("%sc%d.", prefix, i), &t.WAN)
	}
	wanLink := netsim.LinkConfig{Rate: t.WAN.Rate, Latency: t.WAN.Latency}
	wanPort := netsim.PortConfig{Buffer: t.WAN.PortBuffer}
	if t.WAN.Mesh {
		for i := 0; i < len(gws); i++ {
			for j := i + 1; j < len(gws); j++ {
				b.nw.ConnectPorts(gws[i], gws[j], wanLink, wanLink, wanPort, wanPort)
			}
		}
		// The first child's gateway fronts the subtree on the tier
		// above — one site hosts the inter-tier uplink.
		return gws[0]
	}
	bb := b.nw.AddRouter(prefix+"wan.bb", netsim.RouterConfig{ProcDelay: t.WAN.ProcDelay})
	for _, gw := range gws {
		b.nw.ConnectPorts(gw, bb, wanLink, wanLink, wanPort, wanPort)
	}
	return bb
}
