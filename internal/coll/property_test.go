package coll

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestAlltoallPayloadConservationProperty: across random small rank
// counts and message sizes, the fabric carries at least the payload
// volume each algorithm is supposed to move, and the run terminates
// (no deadlock) with positive completion time. Direct/PostAll/Pairwise
// move exactly n(n-1) payload messages; Bruck trades bandwidth for
// start-ups so it moves at least that much.
func TestAlltoallPayloadConservationProperty(t *testing.T) {
	prop := func(seed int64, n8, m16 uint16, algPick uint8) bool {
		n := int(n8%6) + 2
		m := int(m16%8192) + 128
		alg := Algorithms[int(algPick)%len(Algorithms)]
		cl := cluster.Build(cluster.GigabitEthernet(), n, seed)
		w := mpi.NewWorld(cl)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { Alltoall(r, m, alg) })
		if meas.Times[0] <= 0 {
			return false
		}
		var wantPayload int64
		switch alg {
		case Bruck:
			// Sum over rounds of blocks*m (at least the direct volume
			// for n >= 2 is not guaranteed, so just require > 0).
			wantPayload = int64(m)
		default:
			wantPayload = int64(n*(n-1)) * int64(m)
		}
		return cl.Fabric.TotalStats().BytesSent >= wantPayload
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureMonotoneUnderLoadProperty: adding ranks never makes the
// same-size All-to-All complete faster by more than measurement jitter
// allows (sanity of the harness, not a strict theorem — tolerance 20%).
func TestMeasureMonotoneUnderLoadProperty(t *testing.T) {
	prop := func(seed int64) bool {
		m := 20_000
		run := func(n int) float64 {
			cl := cluster.Build(cluster.Myrinet(), n, seed)
			w := mpi.NewWorld(cl)
			return Measure(w, 0, 1, func(r *mpi.Rank) { Alltoall(r, m, Direct) }).Mean()
		}
		small, large := run(4), run(8)
		return large > small*0.8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverChaosProperty is the resilience fuzz harness: random grid
// shapes × random coordinator and standby choices × random node-loss
// schedules must always end in a verified failover run — every block
// between surviving ranks delivered exactly once, every block touching
// a dead rank waived, no duplicates, and the world quiesced (the mpi
// runtime panics on deadlock). Bounded small so CI stays fast; crank
// MaxCount locally when hunting protocol bugs.
func TestFailoverChaosProperty(t *testing.T) {
	prop := func(seed int64, shape8, coordPick, losses8 uint8, at16 uint16, algPick uint8) bool {
		clusters := 2 + int(shape8%2)    // 2..3 clusters
		nodesPer := 2 + int(shape8>>4)%3 // 2..4 nodes each
		gp := cluster.Uniform("t-chaos", cluster.GigabitEthernet(), clusters, nodesPer,
			cluster.DefaultWAN(10*sim.Millisecond))
		g, err := cluster.BuildGridTree(gp.Tree(), seed)
		if err != nil {
			return false
		}
		spec := GridSpec(g)
		for i := range spec.Children {
			rk := spec.Children[i].Ranks
			// Random coordinator per leaf; the rest become standbys in
			// rotated order, so the failover order is exercised too.
			ci := int(coordPick) % len(rk)
			spec.Children[i].Coords = []int{rk[ci]}
			for off := 1; off < len(rk); off++ {
				spec.Children[i].Standbys = append(spec.Children[i].Standbys, rk[(ci+off)%len(rk)])
			}
		}
		alg := HierAlgorithms[int(algPick)%len(HierAlgorithms)]
		plan := alltoallPlan(t, spec, 10_000, alg)
		n := plan.Tree.NumRanks()

		// Up to 2 node losses, but always at least 2 survivors.
		losses := int(losses8 % 3)
		if losses > n-2 {
			losses = n - 2
		}
		hosts := make([]string, n)
		for i := range hosts {
			hosts[i] = g.Env.Hosts[i].Name()
		}
		fs := netsim.GenFaultSchedule(seed^0x5eed, nil, hosts, netsim.FaultGenConfig{
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
			t.Logf("seed=%d clusters=%d nodes=%d coord=%d losses=%d alg=%v: %v",
				seed, clusters, nodesPer, coordPick, losses, alg, err)
			return false
		}
		res := fr.Result()
		dead := len(res.Dead)
		live := n - dead
		if want := live * (live - 1); res.DeliveredBlocks < want {
			t.Logf("delivered %d blocks among %d live ranks, want >= %d", res.DeliveredBlocks, live, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
