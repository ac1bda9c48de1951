package coll

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		for _, root := range []int{0, n - 1} {
			w := world(t, cluster.GigabitEthernet(), n, 21)
			meas := Measure(w, 0, 1, func(r *mpi.Rank) { reduce(r, root, 10_000) })
			if meas.Times[0] <= 0 {
				t.Fatalf("n=%d root=%d: no time elapsed", n, root)
			}
		}
	}
}

func TestAllreduceCompletesAllShapes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		w := world(t, cluster.GigabitEthernet(), n, 22)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { Allreduce(r, 20_000) })
		if meas.Times[0] <= 0 {
			t.Fatalf("n=%d: no time elapsed", n)
		}
	}
}

func TestReduceScatterCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 5, 6} {
		w := world(t, cluster.GigabitEthernet(), n, 23)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) { reduceScatter(r, 8_000) })
		if meas.Times[0] <= 0 {
			t.Fatalf("n=%d: no time elapsed", n)
		}
	}
}

func TestAllreduceRecursiveDoublingBeatsReduceBcast(t *testing.T) {
	// For power-of-two n the recursive-doubling path takes log2(n)
	// exchange steps vs 2·log2(n) for reduce+bcast; with large messages
	// it must win.
	const n, m = 16, 200_000
	wA := world(t, cluster.GigabitEthernet(), n, 24)
	rd := Measure(wA, 1, 2, func(r *mpi.Rank) { Allreduce(r, m) })
	wB := world(t, cluster.GigabitEthernet(), n, 24)
	rb := Measure(wB, 1, 2, func(r *mpi.Rank) {
		reduce(r, 0, m)
		bcast(r, 0, m)
	})
	if rd.Mean() >= rb.Mean() {
		t.Fatalf("recursive doubling (%v) not faster than reduce+bcast (%v)", rd.Mean(), rb.Mean())
	}
}

func TestReduceTreeShallowerThanLinear(t *testing.T) {
	// Binomial reduce is O(log n) rounds; a linear gather is O(n).
	const n, m = 16, 100_000
	wR := world(t, cluster.FastEthernet(), n, 25)
	red := Measure(wR, 1, 2, func(r *mpi.Rank) { reduce(r, 0, m) })
	wG := world(t, cluster.FastEthernet(), n, 25)
	gat := Measure(wG, 1, 2, func(r *mpi.Rank) { linearRoot(r, m, false) })
	if red.Mean() >= gat.Mean() {
		t.Fatalf("binomial reduce (%v) not faster than linear gather (%v)", red.Mean(), gat.Mean())
	}
}

func TestReductionKernelsNonPowerOfTwo(t *testing.T) {
	// The pow2 fast paths (recursive doubling, pairwise halving) must
	// hand off cleanly to their general fallbacks, including interior
	// (non-edge) roots.
	for _, n := range []int{3, 5, 7, 9} {
		w := world(t, cluster.GigabitEthernet(), n, 27)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) {
			reduce(r, n/2, 10_000)
			Allreduce(r, 10_000)
			reduceScatter(r, 10_000)
		})
		if meas.Times[0] <= 0 {
			t.Fatalf("n=%d: no time elapsed", n)
		}
	}
}

func TestReductionKernelsZeroPayload(t *testing.T) {
	// m=0 reductions still synchronize: every kernel moves envelopes
	// through its full step structure rather than short-circuiting, so
	// the run takes positive time and leaves no rank waiting.
	for _, n := range []int{2, 3, 4, 6, 8} {
		w := world(t, cluster.GigabitEthernet(), n, 28)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) {
			reduce(r, 0, 0)
			Allreduce(r, 0)
			reduceScatter(r, 0)
		})
		if meas.Times[0] <= 0 {
			t.Fatalf("n=%d: zero-payload reductions took no time", n)
		}
	}
}

func TestReductionKernelsUnderFaultSchedule(t *testing.T) {
	// A transient NIC degradation (10% rate for a window mid-run) must
	// not wedge the blocking kernels — TCP rides out the slow window —
	// and the degraded run is measurably slower than the clean one.
	const n, m = 8, 200_000
	run := func(degrade bool) sim.Time {
		cl := cluster.Build(cluster.GigabitEthernet(), n, 29)
		if degrade {
			fs := netsim.FaultSchedule{Links: []netsim.LinkFault{{
				Port:         cl.Net.HostPorts()[0],
				At:           0,
				Until:        500 * sim.Millisecond,
				RateFraction: 0.1,
			}}}
			if err := cl.Net.ApplyFaults(fs); err != nil {
				t.Fatal(err)
			}
		}
		w := mpi.NewWorld(cl)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) {
			reduce(r, 0, m)
			Allreduce(r, m)
			reduceScatter(r, m)
		})
		return meas.Times[0]
	}
	clean, degraded := run(false), run(true)
	if clean <= 0 || degraded <= 0 {
		t.Fatalf("nonpositive times: clean=%v degraded=%v", clean, degraded)
	}
	if degraded <= clean {
		t.Fatalf("degraded NIC run (%v) not slower than clean run (%v)", degraded, clean)
	}
}

func TestReduceUnderFaultWithTimedWaits(t *testing.T) {
	// The nonblocking form of the reverse-binomial exchange under a
	// fully downed (then healed) link: timed waits observe the outage as
	// timeouts, keep re-waiting, and complete once the link heals.
	const n, m = 4, 100_000
	cl := cluster.Build(cluster.GigabitEthernet(), n, 30)
	fs := netsim.FaultSchedule{Links: []netsim.LinkFault{{
		Port:  cl.Net.HostPorts()[1],
		At:    0,
		Until: 80 * sim.Millisecond,
	}}}
	if err := cl.Net.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(cl)
	timeouts := 0
	w.Run(func(r *mpi.Rank) {
		vrank := r.ID()
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				q := r.Isend(vrank&^mask, tagReduce, m)
				for !r.WaitAllTimeout(10*sim.Millisecond, q) {
					timeouts++
				}
				return
			}
			if vrank|mask < n {
				q := r.Irecv(vrank|mask, tagReduce)
				for !r.WaitAllTimeout(10*sim.Millisecond, q) {
					timeouts++
				}
			}
			mask <<= 1
		}
	})
	if timeouts == 0 {
		t.Fatal("80ms outage produced no 10ms wait timeouts")
	}
}

func TestReductionCollectivesOnLosslessNetwork(t *testing.T) {
	cl := cluster.Build(cluster.Myrinet(), 8, 26)
	w := mpi.NewWorld(cl)
	meas := Measure(w, 0, 1, func(r *mpi.Rank) {
		reduce(r, 0, 50_000)
		Allreduce(r, 50_000)
		reduceScatter(r, 50_000)
	})
	if cl.Net.Drops() != 0 {
		t.Fatalf("lossless network dropped %d packets", cl.Net.Drops())
	}
	if meas.Times[0] <= 0 {
		t.Fatal("no time elapsed")
	}
}
