package coll

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// failoverGrid builds a 2-cluster grid with explicit coordinators and
// ranked standbys per leaf, mirroring what the planner emits.
func failoverGrid(t *testing.T, nodesPer int, seed int64) (*cluster.Grid, TreeSpec) {
	t.Helper()
	gp := cluster.Uniform("t-fo", cluster.GigabitEthernet(), 2, nodesPer,
		cluster.DefaultWAN(10*sim.Millisecond))
	g, err := cluster.BuildGridTree(gp.Tree(), seed)
	if err != nil {
		t.Fatal(err)
	}
	spec := GridSpec(g)
	for i := range spec.Children {
		rk := spec.Children[i].Ranks
		spec.Children[i].Coords = []int{rk[0]}
		spec.Children[i].Standbys = append([]int(nil), rk[1:]...)
	}
	return g, spec
}

// TestFailoverCoordinatorLoss kills cluster 0's coordinator mid-run and
// checks the run completes by failing over to the first standby, with
// exactly-once delivery among survivors and the dead rank's blocks
// waived.
func TestFailoverCoordinatorLoss(t *testing.T) {
	g, spec := failoverGrid(t, 3, 11)
	plan := alltoallPlan(t, spec, 20_000, HierGather)
	n := plan.Tree.NumRanks()

	fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
		{Host: g.Env.Hosts[0].Name(), At: 15 * sim.Millisecond},
	}}
	if err := g.Env.Net.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	declared := make(map[int]int)
	fr := NewFailoverRun(plan, FailoverConfig{
		Timeout: 200 * sim.Millisecond,
		IsDead:  func(rank int) bool { return fs.NodeLostBy(g.Env.Hosts[rank].Name(), g.Env.Sim.Now()) },
		Quench:  func(rank int) { g.Env.Fabric.Quench(rank) },
		OnDeclare: func(rank, epoch int, now sim.Time) {
			declared[rank] = epoch
		},
	})
	w := mpi.NewWorld(g.Env)
	w.Run(func(r *mpi.Rank) { fr.Run(r) })

	res := fr.Result()
	if res.Incomplete {
		t.Fatalf("run abandoned: %+v", res)
	}
	if res.Epochs < 2 {
		t.Fatalf("coordinator loss handled in %d epoch(s), want a recovery epoch", res.Epochs)
	}
	if len(res.Dead) != 1 || res.Dead[0] != 0 {
		t.Fatalf("dead = %v, want [0]", res.Dead)
	}
	if _, ok := declared[0]; !ok {
		t.Fatal("OnDeclare never fired for rank 0")
	}
	if err := fr.Verify(); err != nil {
		t.Fatal(err)
	}
	// Blocks rank 0 exchanged before dying (the intra-cluster phase)
	// stay delivered; only its undelivered blocks are waived.
	if res.WaivedBlocks == 0 || res.WaivedBlocks > 2*(n-1) {
		t.Fatalf("waived %d blocks, want 1..%d", res.WaivedBlocks, 2*(n-1))
	}
	if res.DeliveredBlocks+res.WaivedBlocks != n*(n-1) {
		t.Fatalf("delivered %d + waived %d ≠ %d blocks", res.DeliveredBlocks, res.WaivedBlocks, n*(n-1))
	}
	// The recovery plan must have moved cluster 0's coordinator onto the
	// first standby, not an arbitrary rank.
	rec := fr.epochs[len(fr.epochs)-1].plan
	if got := rec.Tree.Coordinators(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("recovery coordinator of leaf 0 = %v, want [1] (first standby)", got)
	}
	for _, ft := range res.FinishAt[1:] {
		if ft <= 15*sim.Millisecond {
			t.Fatalf("survivor finished at %v, before the fault", ft)
		}
	}
}

// TestFailoverNonCoordinatorLoss kills a non-coordinator and checks the
// coordinator set is untouched while its blocks are waived.
func TestFailoverNonCoordinatorLoss(t *testing.T) {
	g, spec := failoverGrid(t, 3, 13)
	plan := alltoallPlan(t, spec, 20_000, HierGather)

	victim := 4 // member of cluster 1, not its coordinator (rank 3)
	fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
		{Host: g.Env.Hosts[victim].Name(), At: 10 * sim.Millisecond},
	}}
	if err := g.Env.Net.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	fr := NewFailoverRun(plan, FailoverConfig{
		Timeout: 200 * sim.Millisecond,
		IsDead:  func(rank int) bool { return fs.NodeLostBy(g.Env.Hosts[rank].Name(), g.Env.Sim.Now()) },
		Quench:  func(rank int) { g.Env.Fabric.Quench(rank) },
	})
	w := mpi.NewWorld(g.Env)
	w.Run(func(r *mpi.Rank) { fr.Run(r) })

	if err := fr.Verify(); err != nil {
		t.Fatal(err)
	}
	res := fr.Result()
	if len(res.Dead) != 1 || res.Dead[0] != victim {
		t.Fatalf("dead = %v, want [%d]", res.Dead, victim)
	}
	rec := fr.epochs[len(fr.epochs)-1].plan
	if got := rec.Tree.Coordinators(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("recovery coordinator of leaf 1 = %v, want [3] (unchanged)", got)
	}
}

// TestFailoverExactlyOnceProperty: across random seeds, victims, and
// fault times, a single mid-run node loss always ends in a verified
// run — every surviving pair's block delivered exactly once, the dead
// rank's blocks waived, no duplicates — and the world quiesces (the mpi
// runtime panics on deadlock).
func TestFailoverExactlyOnceProperty(t *testing.T) {
	prop := func(seed int64, victim8, at16 uint16, algPick uint8) bool {
		nodesPer := 3
		alg := HierAlgorithms[int(algPick)%len(HierAlgorithms)]
		gp := cluster.Uniform("t-fop", cluster.GigabitEthernet(), 2, nodesPer,
			cluster.DefaultWAN(10*sim.Millisecond))
		g, err := cluster.BuildGridTree(gp.Tree(), seed)
		if err != nil {
			return false
		}
		spec := GridSpec(g)
		for i := range spec.Children {
			rk := spec.Children[i].Ranks
			spec.Children[i].Coords = []int{rk[0]}
			spec.Children[i].Standbys = append([]int(nil), rk[1:]...)
		}
		plan := alltoallPlan(t, spec, 20_000, alg)
		n := plan.Tree.NumRanks()
		victim := int(victim8) % n
		at := sim.Time(at16%120) * sim.Millisecond // 0..119ms, spanning the whole run
		fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
			{Host: g.Env.Hosts[victim].Name(), At: at},
		}}
		if err := g.Env.Net.ApplyFaults(fs); err != nil {
			return false
		}
		fr := NewFailoverRun(plan, FailoverConfig{
			Timeout: 150 * sim.Millisecond,
			IsDead:  func(rank int) bool { return fs.NodeLostBy(g.Env.Hosts[rank].Name(), g.Env.Sim.Now()) },
			Quench:  func(rank int) { g.Env.Fabric.Quench(rank) },
		})
		w := mpi.NewWorld(g.Env)
		w.Run(func(r *mpi.Rank) { fr.Run(r) })
		if err := fr.Verify(); err != nil {
			// A fault landing after completion leaves nothing declared;
			// Verify still passes (no dead, all delivered), so any error
			// is a genuine protocol violation.
			t.Logf("seed=%d victim=%d at=%v alg=%v: %v", seed, victim, at, alg, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
