package cluster

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

func TestGridProfilesBuild(t *testing.T) {
	for name, gp := range GridProfiles() {
		g, err := BuildGridTree(gp.Tree(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(g.Env.Hosts); got != gp.TotalNodes() {
			t.Fatalf("%s: %d hosts, want %d", name, got, gp.TotalNodes())
		}
		if len(g.Members) != len(gp.Members) {
			t.Fatalf("%s: %d member lists, want %d", name, len(g.Members), len(gp.Members))
		}
		seen := 0
		for c, ids := range g.Members {
			for _, id := range ids {
				if g.ClusterOf[id] != c {
					t.Fatalf("%s: ClusterOf[%d]=%d, want %d", name, id, g.ClusterOf[id], c)
				}
				seen++
			}
		}
		if seen != gp.TotalNodes() {
			t.Fatalf("%s: member lists cover %d ranks, want %d", name, seen, gp.TotalNodes())
		}
	}
}

func TestGridTreesBuild(t *testing.T) {
	for name, tree := range GridTrees() {
		g, err := BuildGridTree(tree, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(g.Env.Hosts); got != tree.TotalNodes() {
			t.Fatalf("%s: %d hosts, want %d", name, got, tree.TotalNodes())
		}
		if len(g.Members) != tree.NumLeaves() {
			t.Fatalf("%s: %d member lists, want %d leaves", name, len(g.Members), tree.NumLeaves())
		}
		if len(g.Routers) != tree.NumLeaves() {
			t.Fatalf("%s: %d border routers, want %d", name, len(g.Routers), tree.NumLeaves())
		}
		seen := 0
		for c, ids := range g.Members {
			for _, id := range ids {
				if g.ClusterOf[id] != c {
					t.Fatalf("%s: ClusterOf[%d]=%d, want %d", name, id, g.ClusterOf[id], c)
				}
				seen++
			}
		}
		if seen != tree.TotalNodes() {
			t.Fatalf("%s: member lists cover %d ranks, want %d", name, seen, tree.TotalNodes())
		}
	}
}

// TestBuildGridTreeSingleLeaf: a depth-0 tree is a plain cluster — no
// WAN, so even non-retransmitting transports build.
func TestBuildGridTreeSingleLeaf(t *testing.T) {
	g, err := BuildGridTree(Leaf(Myrinet(), 4), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Env.Hosts) != 4 || len(g.Members) != 1 || len(g.Routers) != 0 {
		t.Fatalf("single-leaf grid built %d hosts / %d leaves / %d routers",
			len(g.Env.Hosts), len(g.Members), len(g.Routers))
	}
}

// TestThreeLevelCrossTierLatency: a message between nations must cross
// one campus hop on each side plus the continental tier, so it cannot
// arrive before the summed one-way propagation delays.
func TestThreeLevelCrossTierLatency(t *testing.T) {
	low, high := 10*sim.Millisecond, 50*sim.Millisecond
	tree := ThreeLevel("t3", WANTuned(GigabitEthernet()), 2, 2, 2,
		DefaultWAN(low), DefaultWAN(high))
	g, err := BuildGridTree(tree, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf order: n0c0, n0c1, n1c0, n1c1. Source in n0c1, destination in
	// n1c1: the mesh gateways sit at each nation's first campus, so the
	// path crosses campus links twice and the continental link once.
	src, dst := g.Members[1][0], g.Members[3][0]
	var at sim.Time
	arrived := false
	g.Env.Fabric.Conn(dst, src).SetHandler(func(m transport.Message) {
		at, arrived = g.Env.Sim.Now(), true
	})
	g.Env.Fabric.Conn(src, dst).Send(transport.Message{Kind: 1, Size: 1024})
	g.Env.Sim.Run()
	if !arrived {
		t.Fatal("cross-nation message not delivered")
	}
	if want := 2*low + high; at < want {
		t.Fatalf("delivered at %v, before the %v three-tier path", at, want)
	}
	// Intra-nation, cross-campus: one campus hop only — faster than any
	// continental crossing. Fresh build, so the clock starts at zero.
	g, err = BuildGridTree(tree, 11)
	if err != nil {
		t.Fatal(err)
	}
	src2, dst2 := g.Members[0][0], g.Members[1][1]
	var at2 sim.Time
	arrived = false
	g.Env.Fabric.Conn(dst2, src2).SetHandler(func(m transport.Message) {
		at2, arrived = g.Env.Sim.Now(), true
	})
	g.Env.Fabric.Conn(src2, dst2).Send(transport.Message{Kind: 1, Size: 1024})
	g.Env.Sim.Run()
	if !arrived {
		t.Fatal("cross-campus message not delivered")
	}
	if at2 < low || at2 >= high {
		t.Fatalf("cross-campus delivery at %v, want within [%v, %v)", at2, low, high)
	}
}

func TestGridRejectsMixedTransportKinds(t *testing.T) {
	gp := GridProfile{
		Name: "bad",
		Members: []GridMember{
			{Profile: FastEthernet(), Nodes: 2},
			{Profile: Myrinet(), Nodes: 2},
		},
		WAN: DefaultWAN(10 * sim.Millisecond),
	}
	if _, err := BuildGridTree(gp.Tree(), 1); err == nil || !strings.Contains(err.Error(), "transport kinds") {
		t.Fatalf("want mixed-kind error, got %v", err)
	}
}

// TestGridRejectsMixedEagerThresholds: one grid runs one MPI protocol
// switch point; leaves resolving to different thresholds are rejected,
// while an explicit default and an unset field are the same threshold.
func TestGridRejectsMixedEagerThresholds(t *testing.T) {
	small := GigabitEthernet()
	small.EagerThreshold = 4 << 10
	wan := DefaultWAN(10 * sim.Millisecond)
	bad := Group("bad", wan, Leaf(GigabitEthernet(), 2), Leaf(small, 2))
	if _, err := BuildGridTree(bad, 1); err == nil || !strings.Contains(err.Error(), "eager thresholds 65536 and 4096") {
		t.Fatalf("want mixed-threshold error, got %v", err)
	}
	explicit := GigabitEthernet()
	explicit.EagerThreshold = DefaultEagerThreshold
	g, err := BuildGridTree(Group("ok", wan, Leaf(GigabitEthernet(), 2), Leaf(explicit, 2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Env.EagerThreshold != DefaultEagerThreshold {
		t.Fatalf("built threshold %d, want %d", g.Env.EagerThreshold, DefaultEagerThreshold)
	}
	if got := Build(small, 2, 1).EagerThreshold; got != 4<<10 {
		t.Fatalf("built threshold %d, want %d", got, 4<<10)
	}
}

// TestValidateRejectsNegativeEagerThreshold: a negative switch point
// would send every message, even an empty one, by rendezvous.
func TestValidateRejectsNegativeEagerThreshold(t *testing.T) {
	p := GigabitEthernet()
	p.EagerThreshold = -1
	leaf := Leaf(p, 2)
	if err := leaf.Validate(); err == nil || !strings.Contains(err.Error(), "negative EagerThreshold -1") {
		t.Fatalf("want negative-threshold error, got %v", err)
	}
	if _, err := BuildGridTree(Group("g", DefaultWAN(sim.Millisecond), Leaf(GigabitEthernet(), 2), leaf), 1); err == nil {
		t.Fatal("BuildGridTree accepted a negative eager threshold")
	}
}

func TestGridRejectsNonRetransmittingTransport(t *testing.T) {
	// GM relies on a lossless fabric; over tail-drop WAN ports the
	// first lost segment would hang the simulation forever.
	gp := Uniform("gm-grid", Myrinet(), 2, 2, DefaultWAN(10*sim.Millisecond))
	if _, err := BuildGridTree(gp.Tree(), 1); err == nil || !strings.Contains(err.Error(), "retransmitting") {
		t.Fatalf("want transport rejection, got %v", err)
	}
}

// TestGridStarCrossesTwoWANLinks: Mesh=false must route through the
// backbone router even for two clusters, so the one-way path pays the
// WAN propagation twice.
func TestGridStarCrossesTwoWANLinks(t *testing.T) {
	wanLat := 15 * sim.Millisecond
	wan := DefaultWAN(wanLat)
	wan.Mesh = false
	gp := Uniform("t2star", GigabitEthernet(), 2, 2, wan)
	g, err := BuildGridTree(gp.Tree(), 9)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.Members[0][0], g.Members[1][0]
	var at sim.Time
	arrived := false
	g.Env.Fabric.Conn(dst, src).SetHandler(func(m transport.Message) {
		at, arrived = g.Env.Sim.Now(), true
	})
	g.Env.Fabric.Conn(src, dst).Send(transport.Message{Kind: 1, Size: 1024})
	g.Env.Sim.Run()
	if !arrived {
		t.Fatal("cross-cluster message not delivered via backbone")
	}
	if at < 2*wanLat {
		t.Fatalf("delivered at %v, before two WAN hops (%v)", at, 2*wanLat)
	}
}

// TestGridCrossClusterTransfer sends a transport message between
// clusters and checks it arrives no earlier than the WAN propagation
// delay allows.
func TestGridCrossClusterTransfer(t *testing.T) {
	wanLat := 15 * sim.Millisecond
	gp := Uniform("t2", WANTuned(GigabitEthernet()), 2, 3, DefaultWAN(wanLat))
	g, err := BuildGridTree(gp.Tree(), 42)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.Members[0][0], g.Members[1][0]
	var at sim.Time
	arrived := false
	g.Env.Fabric.Conn(dst, src).SetHandler(func(m transport.Message) {
		at, arrived = g.Env.Sim.Now(), true
	})
	g.Env.Fabric.Conn(src, dst).Send(transport.Message{Kind: 1, Size: 100 << 10})
	g.Env.Sim.Run()
	if !arrived {
		t.Fatal("cross-cluster message not delivered")
	}
	if at < wanLat {
		t.Fatalf("delivered at %v, before one-way WAN latency %v", at, wanLat)
	}
}
