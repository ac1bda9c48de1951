// Package cluster assembles named simulated environments mirroring the
// three platforms of the paper's evaluation (Section 8):
//
//   - Fast Ethernet  — icluster2: 5 Fast Ethernet edge switches with 20
//     nodes each behind one Gigabit Ethernet core switch, TCP transport.
//   - Gigabit Ethernet — GdX: one flat Gigabit switch, TCP transport.
//   - Myrinet — icluster2's Myrinet 2000 (one M3-E128 switch), GM
//     transport over a lossless, credit-backpressured fabric.
//
// Profiles are plain data so experiments can perturb them (buffer-size
// ablations, InfiniBand-like extension, ...).
package cluster

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Profile describes a buildable cluster environment.
type Profile struct {
	Name string
	Kind transport.Kind

	// Host link (node ↔ edge switch).
	LinkRate    int64 // bytes/s
	LinkLatency sim.Time

	// Edge switch queueing.
	PortBuffer int
	Lossless   bool

	// Optional two-level hierarchy. Leaves > 1 builds that many edge
	// switches under one core switch and assigns hosts round-robin
	// (balanced placement, as a shared cluster's scheduler produces);
	// NodesPerLeaf caps a leaf's hosts, adding leaves beyond Leaves for
	// very large node counts.
	Leaves         int
	NodesPerLeaf   int
	UplinkRate     int64
	UplinkLatency  sim.Time
	CorePortBuffer int

	// Host receive-path software cost: per-packet processing time is
	// RxCostBase + RxCostPerConn × (nodes − 1), modeling the kernel TCP
	// receive path plus a select()-based MPI progress engine whose scan
	// cost grows with the number of open connections. Zero for kernel-
	// bypass stacks (Myrinet/GM). This is what lets a network deliver
	// full bandwidth to a single ping-pong stream while collapsing
	// under the n−1 concurrent connections of an All-to-All — the
	// paper's Gigabit Ethernet phenomenology.
	RxCostBase    sim.Time
	RxCostPerConn sim.Time

	// NodeLinkRates optionally overrides LinkRate per host position:
	// host i of a built cluster (or of a grid leaf, counted within the
	// leaf) uses NodeLinkRates[i] when that entry is positive; missing
	// or zero entries keep LinkRate. This models heterogeneous NIC or
	// access-port headroom — older adapters, oversubscribed ports — the
	// grid planner probes back from the built network to steer subtree
	// coordinators away from degraded uplinks.
	NodeLinkRates []int64

	// Transport tuning.
	TCP transport.TCPConfig
	GM  transport.GMConfig

	// EagerThreshold is the largest MPI payload sent eagerly; larger
	// payloads use the rendezvous protocol. Zero means
	// DefaultEagerThreshold.
	EagerThreshold int
}

// DefaultEagerThreshold is the eager → rendezvous switch point of
// LAM-era TCP RPIs, 64 KiB.
const DefaultEagerThreshold = 64 << 10

// Eager returns the profile's eager threshold, defaulted.
func (p Profile) Eager() int {
	if p.EagerThreshold == 0 {
		return DefaultEagerThreshold
	}
	return p.EagerThreshold
}

// NodeRate returns host i's access-link rate: the per-node override
// when present, LinkRate otherwise.
func (p Profile) NodeRate(i int) int64 {
	if i >= 0 && i < len(p.NodeLinkRates) && p.NodeLinkRates[i] > 0 {
		return p.NodeLinkRates[i]
	}
	return p.LinkRate
}

// FastEthernet returns the icluster2 Fast Ethernet profile: 100 Mbit/s
// host links on 20-port edge switches, 1 Gbit/s uplinks to a core switch.
func FastEthernet() Profile {
	return Profile{
		Name:           "fast-ethernet",
		Kind:           transport.TCP,
		LinkRate:       12_500_000, // 100 Mbit/s
		LinkLatency:    25 * sim.Microsecond,
		PortBuffer:     192 << 10,
		Leaves:         5,
		NodesPerLeaf:   20,
		UplinkRate:     125_000_000, // 1 Gbit/s
		UplinkLatency:  10 * sim.Microsecond,
		CorePortBuffer: 768 << 10,
		RxCostBase:     2 * sim.Microsecond,
		RxCostPerConn:  550 * sim.Nanosecond,
		TCP:            transport.DefaultTCPConfig(),
	}
}

// GigabitEthernet returns the GdX profile: a flat 1 Gbit/s switch.
func GigabitEthernet() Profile {
	return Profile{
		Name:          "gigabit-ethernet",
		Kind:          transport.TCP,
		LinkRate:      125_000_000,
		LinkLatency:   20 * sim.Microsecond,
		PortBuffer:    80 << 10,
		RxCostBase:    2 * sim.Microsecond,
		RxCostPerConn: 550 * sim.Nanosecond,
		TCP:           transport.DefaultTCPConfig(),
	}
}

// Myrinet returns the icluster2 Myrinet 2000 profile: a flat lossless
// 2 Gbit/s switch with small port buffers and credit backpressure.
func Myrinet() Profile {
	return Profile{
		Name:        "myrinet",
		Kind:        transport.GM,
		LinkRate:    250_000_000, // 2 Gbit/s
		LinkLatency: 4 * sim.Microsecond,
		PortBuffer:  32 << 10,
		Lossless:    true,
		GM:          transport.DefaultGMConfig(),
	}
}

// InfiniBandLike is the forward-looking profile named in the paper's
// future work: higher rate, lower latency, lossless.
func InfiniBandLike() Profile {
	return Profile{
		Name:        "infiniband-like",
		Kind:        transport.GM,
		LinkRate:    1_000_000_000, // 8 Gbit/s effective
		LinkLatency: 2 * sim.Microsecond,
		PortBuffer:  64 << 10,
		Lossless:    true,
		GM:          transport.GMConfig{MTU: 2048, HeaderSize: 20},
	}
}

// profiles returns the canonical evaluation profiles keyed by name.
func profiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range []Profile{FastEthernet(), GigabitEthernet(), Myrinet(), InfiniBandLike()} {
		out[p.Name] = p
	}
	return out
}

// ByName returns the named canonical profile.
func ByName(name string) (Profile, error) {
	p, ok := profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("cluster: unknown profile %q", name)
	}
	return p, nil
}

// Cluster is a built environment: simulator, network, hosts, fabric and eager threshold.
type Cluster struct {
	Sim            *sim.Simulator
	Net            *netsim.Network
	Hosts          []*netsim.Device
	Fabric         *transport.Fabric
	EagerThreshold int
}

// Build instantiates a profile with the given node count and seed: the
// one-leaf BuildGridTree. It panics with BuildGridTree's error if
// nodes < 1.
func Build(p Profile, nodes int, seed int64) *Cluster {
	g, err := BuildGridTree(Leaf(p, nodes), seed)
	if err != nil {
		panic(err)
	}
	return g.Env
}

// buildLAN wires hosts into p's intra-cluster switch topology (flat edge
// switch, or leaves under a core) and returns the attachment point for a
// border router: the core switch when the profile is hierarchical, the
// single edge switch otherwise. Device names are prefixed so several
// LANs can share one network.
func buildLAN(nw *netsim.Network, p Profile, hosts []*netsim.Device, prefix string) *netsim.Device {
	edgeCfg := netsim.SwitchConfig{PortBuffer: p.PortBuffer, Lossless: p.Lossless}
	link := netsim.LinkConfig{Rate: p.LinkRate, Latency: p.LinkLatency}

	nodes := len(hosts)
	leaves := p.Leaves
	if p.NodesPerLeaf > 0 {
		if need := (nodes + p.NodesPerLeaf - 1) / p.NodesPerLeaf; need > leaves {
			leaves = need
		}
	}
	// nodeLink is host i's access link, honoring per-node NIC overrides.
	nodeLink := func(i int) netsim.LinkConfig {
		l := link
		l.Rate = p.NodeRate(i)
		return l
	}
	if leaves > 1 {
		coreCfg := netsim.SwitchConfig{PortBuffer: p.CorePortBuffer, Lossless: p.Lossless}
		core := nw.AddSwitch(prefix+"core", coreCfg)
		uplink := netsim.LinkConfig{Rate: p.UplinkRate, Latency: p.UplinkLatency}
		leafSw := make([]*netsim.Device, leaves)
		for l := 0; l < leaves; l++ {
			leafSw[l] = nw.AddSwitch(fmt.Sprintf("%sleaf%d", prefix, l), edgeCfg)
			nw.Connect(leafSw[l], core, uplink)
		}
		for i, h := range hosts {
			nw.Connect(h, leafSw[i%leaves], nodeLink(i))
		}
		return core
	}
	sw := nw.AddSwitch(prefix+"sw", edgeCfg)
	for i, h := range hosts {
		nw.Connect(h, sw, nodeLink(i))
	}
	return sw
}

// applyRxCost installs the per-packet receive processing cost on each
// host, scaled by the number of open connections (conns−1 peers).
func applyRxCost(p Profile, hosts []*netsim.Device, conns int) {
	if p.RxCostBase > 0 || p.RxCostPerConn > 0 {
		cost := p.RxCostBase + sim.Time(conns-1)*p.RxCostPerConn
		for _, h := range hosts {
			h.SetRxCost(cost)
		}
	}
}
