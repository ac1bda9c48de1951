package coll

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// suiteKinds are the uniform kinds (Alltoallv carries a size matrix;
// its plans are verified by verifyHierPlan).
var suiteKinds = []Kind{
	KindAlltoall, KindAllgather, KindBroadcast,
	KindReduce, KindReduceScatter, KindAllreduce,
}

// wantUniverse computes the delivery obligations a kind owes over n
// ranks: every ordered pair for the All-to-All-shaped kinds, the rooted
// legs for broadcast/reduce, both legs for allreduce (root 0).
func wantUniverse(kind Kind, n int) map[Block]bool {
	u := map[Block]bool{}
	switch kind {
	case KindAlltoall, KindAllgather, KindReduceScatter:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					u[Block{Src: i, Dst: j}] = true
				}
			}
		}
	case KindBroadcast:
		for j := 1; j < n; j++ {
			u[Block{Src: 0, Dst: j}] = true
		}
	case KindReduce:
		for i := 1; i < n; i++ {
			u[Block{Src: i, Dst: 0}] = true
		}
	case KindAllreduce:
		for r := 1; r < n; r++ {
			u[Block{Src: r, Dst: 0}] = true
			u[Block{Src: 0, Dst: r}] = true
		}
	}
	return u
}

// verifyKindPlan statically checks a compiled kind plan: the universe
// matches the kind's semantics, every obligation is delivered exactly
// once at its terminal rank, every message's sender possesses its
// blocks before forwarding them (received in a strictly earlier phase
// of its own order, or held initially), and every message weighs what
// the tests' reference of the payload rule says (refBytes).
func verifyKindPlan(plan *HierPlan) error {
	kind := plan.Workload.Kind
	n := plan.Tree.NumRanks()
	want := wantUniverse(kind, n)
	got := map[Block]bool{}
	for _, b := range plan.universe() {
		got[b] = true
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s over %d ranks: universe has %d blocks, want %d",
			kind, n, len(got), len(want))
	}

	// arrival[rank][block]: earliest phase the rank receives the block.
	arrival := make([]map[Block]int, n)
	for i := range arrival {
		arrival[i] = map[Block]int{}
	}
	delivered := map[Block]int{}
	for _, msg := range plan.msgs {
		for _, b := range msg.blocks {
			if ph, ok := arrival[msg.to][b]; !ok || msg.toPhase < ph {
				arrival[msg.to][b] = msg.toPhase
			}
			if b.Dst == msg.to {
				delivered[b]++
			}
		}
	}
	for b := range want {
		if delivered[b] != 1 {
			return fmt.Errorf("%s: block %d→%d delivered %d times, want exactly once",
				kind, b.Src, b.Dst, delivered[b])
		}
	}
	for i, msg := range plan.msgs {
		for _, b := range msg.blocks {
			if b.Src == msg.from {
				continue // initially held at its source
			}
			ph, ok := arrival[msg.from][b]
			if !ok {
				return fmt.Errorf("%s: rank %d forwards block %d→%d it never received",
					kind, msg.from, b.Src, b.Dst)
			}
			if ph >= msg.fromPhase {
				return fmt.Errorf("%s: rank %d forwards block %d→%d in phase %d but receives it in phase %d",
					kind, msg.from, b.Src, b.Dst, msg.fromPhase, ph)
			}
		}
		if wantB := refBytes(plan.Workload, msg.blocks); msg.bytes != wantB {
			return fmt.Errorf("%s: message %d sized %d bytes, want %d", kind, i, msg.bytes, wantB)
		}
	}
	return nil
}

// fuzzSpec builds a random 2- or 3-level tree spec with randomized
// leaf coordinator sets, standbys, and (on 3-level shapes) an explicit
// inner-tier coordinator — the joint fuzz surface of the suite.
func fuzzSpec(shape8, coordPick uint8) (TreeSpec, int) {
	leaves := 2 + int(shape8%2)        // 2..3 leaves per group
	nodesPer := 2 + int(shape8>>4)%3   // 2..4 ranks per leaf
	threeLevel := (shape8>>2)&0x1 == 1 // nest two groups under a root
	groups := 1
	if threeLevel {
		groups = 2
	}
	n := 0
	var root TreeSpec
	for g := 0; g < groups; g++ {
		var grp TreeSpec
		for l := 0; l < leaves; l++ {
			var rk []int
			for k := 0; k < nodesPer; k++ {
				rk = append(rk, n)
				n++
			}
			ci := int(coordPick) % len(rk)
			leaf := TreeSpec{Ranks: rk, Coords: []int{rk[ci]}}
			for off := 1; off < len(rk); off++ {
				leaf.Standbys = append(leaf.Standbys, rk[(ci+off)%len(rk)])
			}
			grp.Children = append(grp.Children, leaf)
		}
		if threeLevel {
			root.Children = append(root.Children, grp)
		} else {
			root = grp
		}
	}
	if threeLevel && coordPick%3 == 0 {
		// An explicit inner-tier coordinator on the first national group:
		// its second leaf's coordinator relays the tier.
		root.Children[0].Coords = []int{root.Children[0].Children[1].Coords[0]}
	}
	return root, n
}

// TestKindPlansExactlyOnceProperty fuzzes tree shapes × coordinator
// sets × kinds × algorithm variants and statically verifies every
// compiled plan: kind-correct universe, exactly-once delivery,
// forward-after-receive phase safety, and kind-consistent payloads.
func TestKindPlansExactlyOnceProperty(t *testing.T) {
	prop := func(shape8, coordPick, kindPick, algPick uint8) bool {
		spec, _ := fuzzSpec(shape8, coordPick)
		kind := suiteKinds[int(kindPick)%len(suiteKinds)]
		alg := HierAlgorithms[int(algPick)%len(HierAlgorithms)]
		if err := verifyKindPlan(mustCompile(t, spec, Uniform(kind, 4096), alg)); err != nil {
			t.Logf("shape=%d coord=%d alg=%v: %v", shape8, coordPick, alg, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKindPlannedExecutionCompletes runs every suite kind's plan on a
// simulated 3-level grid end to end: the run terminates (the runtime
// panics on deadlock), takes positive time, and the fabric moved at
// least the kind's minimum aggregate payload.
func TestKindPlannedExecutionCompletes(t *testing.T) {
	p := cluster.GigabitEthernet()
	tree := cluster.ThreeLevel("t-kind3", p, 2, 2, 2,
		cluster.DefaultWAN(5*sim.Millisecond), cluster.DefaultWAN(20*sim.Millisecond))
	const m = 10_000
	for _, kind := range suiteKinds {
		for _, alg := range HierAlgorithms {
			g, err := cluster.BuildGridTree(tree, 7)
			if err != nil {
				t.Fatal(err)
			}
			plan := mustCompile(t, GridSpec(g), Uniform(kind, m), alg)
			n := plan.Tree.NumRanks()
			w := mpi.NewWorld(g.Env)
			meas := Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
			if meas.Times[0] <= 0 {
				t.Fatalf("%s/%v: no time elapsed", kind, alg)
			}
			var wantPayload int64
			switch kind {
			case KindBroadcast, KindReduce:
				wantPayload = int64(n-1) * m // every non-root touched once
			case KindAllreduce:
				wantPayload = int64(n-1) * 2 * m
			default:
				wantPayload = int64(n*(n-1)) * m
			}
			if got := g.Env.Fabric.TotalStats().BytesSent; got < wantPayload {
				t.Fatalf("%s/%v: fabric moved %d bytes, want >= %d", kind, alg, got, wantPayload)
			}
		}
	}
}

// TestKindWireVolumeOrdering pins the per-kind payload model at the
// wire: on the same topology, Broadcast moves far fewer bytes than
// Allgather, which moves fewer than All-to-All relayed through the
// same coordinator plan (Allgather deduplicates per-source copies on
// shared hops).
func TestKindWireVolumeOrdering(t *testing.T) {
	p := cluster.GigabitEthernet()
	gp := cluster.Uniform("t-kindvol", p, 2, 4, cluster.DefaultWAN(10*sim.Millisecond))
	const m = 10_000
	vol := func(kind Kind) int64 {
		g, err := cluster.BuildGridTree(gp.Tree(), 9)
		if err != nil {
			t.Fatal(err)
		}
		plan := mustCompile(t, GridSpec(g), Uniform(kind, m), HierGather)
		w := mpi.NewWorld(g.Env)
		Measure(w, 0, 1, func(r *mpi.Rank) { RunPlan(r, plan, nil) })
		return g.Env.Fabric.TotalStats().BytesSent
	}
	bcast, ag, ata := vol(KindBroadcast), vol(KindAllgather), vol(KindAlltoall)
	if !(bcast < ag && ag < ata) {
		t.Fatalf("wire volumes out of order: broadcast=%d allgather=%d alltoall=%d", bcast, ag, ata)
	}
}

// TestKindFailoverExactlyOnce kills a non-root coordinator mid-run for
// every suite kind and requires the epoch protocol to finish among the
// survivors with the kind's exactly-once delivery intact and the
// victim's obligations waived.
func TestKindFailoverExactlyOnce(t *testing.T) {
	p := cluster.GigabitEthernet()
	gp := cluster.Uniform("t-kindfail", p, 2, 3, cluster.DefaultWAN(10*sim.Millisecond))
	const m = 10_000
	for _, kind := range suiteKinds {
		g, err := cluster.BuildGridTree(gp.Tree(), 11)
		if err != nil {
			t.Fatal(err)
		}
		spec := GridSpec(g)
		// Leaf 1 relays through its middle rank with the others ranked as
		// standbys; the relay is the victim.
		rk := spec.Children[1].Ranks
		victim := rk[1]
		spec.Children[1].Coords = []int{victim}
		spec.Children[1].Standbys = []int{rk[2], rk[0]}
		plan := mustCompile(t, spec, Uniform(kind, m), HierGather)
		n := plan.Tree.NumRanks()
		hosts := make([]string, n)
		for i := range hosts {
			hosts[i] = g.Env.Hosts[i].Name()
		}
		fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
			{Host: hosts[victim], At: 2 * sim.Millisecond},
		}}
		if err := g.Env.Net.ApplyFaults(fs); err != nil {
			t.Fatal(err)
		}
		fr := NewFailoverRun(plan, FailoverConfig{
			Timeout: 100 * sim.Millisecond,
			IsDead:  func(rank int) bool { return fs.NodeLostBy(hosts[rank], g.Env.Sim.Now()) },
			Quench:  func(rank int) { g.Env.Fabric.Quench(rank) },
		})
		w := mpi.NewWorld(g.Env)
		w.Run(func(r *mpi.Rank) { fr.Run(r) })
		if err := fr.Verify(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res := fr.Result()
		if res.Epochs < 2 {
			t.Fatalf("%s: coordinator death handled without an epoch advance (epochs=%d)", kind, res.Epochs)
		}
		universe := wantUniverse(kind, n)
		waivable := 0
		for b := range universe {
			if b.Src == victim || b.Dst == victim {
				waivable++
			}
		}
		if res.DeliveredBlocks+res.WaivedBlocks != len(universe) {
			t.Fatalf("%s: delivered %d + waived %d != universe %d",
				kind, res.DeliveredBlocks, res.WaivedBlocks, len(universe))
		}
		if res.WaivedBlocks > waivable {
			t.Fatalf("%s: waived %d blocks, at most %d touch the victim",
				kind, res.WaivedBlocks, waivable)
		}
	}
}

// TestKindFailoverChaosProperty extends the resilience fuzz harness to
// the whole suite: random shapes × coordinator choices × node-loss
// schedules × kinds must always end in a verified run.
func TestKindFailoverChaosProperty(t *testing.T) {
	prop := func(seed int64, shape8, coordPick, losses8, kindPick uint8, at16 uint16) bool {
		clusters := 2 + int(shape8%2)
		nodesPer := 2 + int(shape8>>4)%3
		gp := cluster.Uniform("t-kindchaos", cluster.GigabitEthernet(), clusters, nodesPer,
			cluster.DefaultWAN(10*sim.Millisecond))
		g, err := cluster.BuildGridTree(gp.Tree(), seed)
		if err != nil {
			return false
		}
		spec := GridSpec(g)
		for i := range spec.Children {
			rk := spec.Children[i].Ranks
			ci := int(coordPick) % len(rk)
			spec.Children[i].Coords = []int{rk[ci]}
			for off := 1; off < len(rk); off++ {
				spec.Children[i].Standbys = append(spec.Children[i].Standbys, rk[(ci+off)%len(rk)])
			}
		}
		kind := suiteKinds[int(kindPick)%len(suiteKinds)]
		plan := mustCompile(t, spec, Uniform(kind, 10_000), HierGather)
		n := plan.Tree.NumRanks()
		losses := int(losses8 % 3)
		if losses > n-2 {
			losses = n - 2
		}
		hosts := make([]string, n)
		for i := range hosts {
			hosts[i] = g.Env.Hosts[i].Name()
		}
		fs := netsim.GenFaultSchedule(seed^0x7a11, nil, hosts, netsim.FaultGenConfig{
			NodeLosses: losses,
			Horizon:    sim.Time(at16%150+1) * sim.Millisecond,
		})
		if err := g.Env.Net.ApplyFaults(fs); err != nil {
			return false
		}
		fr := NewFailoverRun(plan, FailoverConfig{
			Timeout: 150 * sim.Millisecond,
			IsDead:  func(rank int) bool { return fs.NodeLostBy(hosts[rank], g.Env.Sim.Now()) },
			Quench:  func(rank int) { g.Env.Fabric.Quench(rank) },
		})
		w := mpi.NewWorld(g.Env)
		w.Run(func(r *mpi.Rank) { fr.Run(r) })
		if err := fr.Verify(); err != nil {
			t.Logf("seed=%d kind=%s losses=%d: %v", seed, kind, losses, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestParseKindRoundTrips pins the flag/store spelling of every kind.
func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("gatherv"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

// TestWorkloadValidate pins the one input boundary of every runner:
// each malformed workload is rejected with an error naming the field,
// and the well-formed ones of every kind pass.
func TestWorkloadValidate(t *testing.T) {
	const n = 6
	for _, k := range Kinds {
		w := Uniform(k, 1<<10)
		if k == KindAlltoallv {
			w = Irregular(UniformSizeMatrix(n, 1<<10))
		}
		if err := w.Validate(n); err != nil {
			t.Errorf("%v: well-formed workload rejected: %v", k, err)
		}
	}
	for _, tc := range []struct {
		name string
		w    Workload
		want string
	}{
		{"alltoallv-without-sizes", Uniform(KindAlltoallv, 1<<10), "no Sizes"},
		{"uniform-with-sizes", Workload{Kind: KindAllgather, M: 8, Sizes: NewSizeMatrix(n)}, "carries a Sizes"},
		{"negative-m", Uniform(KindAlltoall, -1), "negative M"},
		{"matrix-rank-mismatch", Irregular(NewSizeMatrix(n - 1)), "covers 5 ranks, topology has 6"},
		{"unknown-kind", Uniform(Kind(42), 8), "unknown collective kind 42"},
	} {
		if err := tc.w.Validate(n); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
