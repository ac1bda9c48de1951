package grid

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestProfileKeyDistinguishesProfiles is the regression test for the
// reflective (%+v) cache key: every field of cluster.Profile — name,
// rates, buffers, per-node rate overrides, transport tuning — must
// produce a distinct key when it alone changes, and equal values must
// produce equal keys. A collision here silently shares one
// characterization (signature fit, headroom probe) between members that
// need separate fits.
func TestProfileKeyDistinguishesProfiles(t *testing.T) {
	// Field-count pins: profileKey/wanKey render every field explicitly,
	// so growing one of these structs without extending the key (and the
	// variant table below) must fail here first — the variant table
	// alone can only cover the fields that existed when it was written.
	for _, pin := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(cluster.Profile{}), 17},
		{reflect.TypeOf(transport.TCPConfig{}), 11},
		{reflect.TypeOf(transport.GMConfig{}), 2},
		{reflect.TypeOf(cluster.WANConfig{}), 5},
	} {
		if got := pin.typ.NumField(); got != pin.want {
			t.Fatalf("%v has %d fields, key was written for %d — extend profileKey/wanKey and this test",
				pin.typ, got, pin.want)
		}
	}

	base := cluster.GigabitEthernet()

	variants := map[string]cluster.Profile{}
	add := func(name string, mut func(p *cluster.Profile)) {
		p := base
		// Copy the one reference-typed field so mutations stay local.
		p.NodeLinkRates = append([]int64(nil), base.NodeLinkRates...)
		mut(&p)
		variants[name] = p
	}
	add("base", func(p *cluster.Profile) {})
	add("name", func(p *cluster.Profile) { p.Name = "other" })
	add("link-rate", func(p *cluster.Profile) { p.LinkRate++ })
	add("link-latency", func(p *cluster.Profile) { p.LinkLatency++ })
	add("port-buffer", func(p *cluster.Profile) { p.PortBuffer++ })
	add("lossless", func(p *cluster.Profile) { p.Lossless = true })
	add("leaves", func(p *cluster.Profile) { p.Leaves = 3 })
	add("nodes-per-leaf", func(p *cluster.Profile) { p.NodesPerLeaf = 9 })
	add("uplink-rate", func(p *cluster.Profile) { p.UplinkRate = 1 })
	add("uplink-latency", func(p *cluster.Profile) { p.UplinkLatency = 1 })
	add("core-buffer", func(p *cluster.Profile) { p.CorePortBuffer = 1 })
	add("rx-base", func(p *cluster.Profile) { p.RxCostBase++ })
	add("rx-per-conn", func(p *cluster.Profile) { p.RxCostPerConn++ })
	add("node-rates", func(p *cluster.Profile) { p.NodeLinkRates = []int64{12_500_000} })
	add("node-rates-2", func(p *cluster.Profile) { p.NodeLinkRates = []int64{1, 2} })
	// Ambiguity regression: a slice [12] must not collide with [1, 2]
	// under any separator scheme.
	add("node-rates-12", func(p *cluster.Profile) { p.NodeLinkRates = []int64{12} })
	// Transport tuning must separate fits: WANTuned widens RcvWindow
	// only — PR 3's "members sharing a name but not tuning" rule.
	add("wan-tuned", func(p *cluster.Profile) { p.TCP.RcvWindow = 256 << 10 })
	add("tcp-mss", func(p *cluster.Profile) { p.TCP.MSS = 9000 })
	add("tcp-rtomin", func(p *cluster.Profile) { p.TCP.RTOMin = 1 })
	add("tcp-maxretries", func(p *cluster.Profile) { p.TCP.MaxRetries = 7 })
	add("gm-mtu", func(p *cluster.Profile) { p.GM.MTU = 2048 })
	add("eager", func(p *cluster.Profile) { p.EagerThreshold = 4 << 10 })
	// Crafted-name regression: under an unquoted reflective rendering, a
	// name that imitates the rate-slice syntax could collide with the
	// "node-rates" variant, which really has that slice. Quoting must
	// keep them apart.
	add("evil-name", func(p *cluster.Profile) { p.Name = base.Name + `" rates=[12500000]` })

	keys := map[string]string{}
	for name, p := range variants {
		keys[name] = profileKey(p)
	}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Fatalf("profileKey collision between %q and %q: %s", a, b, ka)
			}
		}
	}

	// Equal values must key equally, including separately built copies.
	again := cluster.GigabitEthernet()
	if profileKey(again) != keys["base"] {
		t.Fatalf("identical profiles keyed differently:\n%s\n%s", profileKey(again), keys["base"])
	}
	// An explicit default threshold is the same network as an unset one.
	again.EagerThreshold = cluster.DefaultEagerThreshold
	if profileKey(again) != keys["base"] {
		t.Fatalf("explicit default eager threshold keyed differently:\n%s", profileKey(again))
	}
}

// TestTopoKeySharesStructureIgnoresNames: topoKey must ignore node
// names (so generated sibling tiers share one fit) while distinguishing
// WAN parameters and leaf shapes.
func TestTopoKeySharesStructureIgnoresNames(t *testing.T) {
	ge := cluster.WANTuned(cluster.GigabitEthernet())
	wan := cluster.DefaultWAN(10 * sim.Millisecond)
	a := cluster.Group("first", wan, cluster.Leaf(ge, 3), cluster.Leaf(ge, 3))
	b := cluster.Group("second", wan, cluster.Leaf(ge, 3), cluster.Leaf(ge, 3))
	if topoKey(a) != topoKey(b) {
		t.Fatal("structurally identical subtrees keyed differently")
	}
	slower := wan
	slower.Rate /= 2
	c := cluster.Group("first", slower, cluster.Leaf(ge, 3), cluster.Leaf(ge, 3))
	if topoKey(a) == topoKey(c) {
		t.Fatal("different WAN rates keyed identically")
	}
	d := cluster.Group("first", wan, cluster.Leaf(ge, 3), cluster.Leaf(ge, 4))
	if topoKey(a) == topoKey(d) {
		t.Fatal("different leaf sizes keyed identically")
	}
}
