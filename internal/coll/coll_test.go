package coll

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func world(t *testing.T, p cluster.Profile, nodes int, seed int64) *mpi.World {
	t.Helper()
	return mpi.NewWorld(cluster.Build(p, nodes, seed))
}

// linearRoot is the O(n)-round baseline the binomial trees are measured
// against: rank 0 exchanges one m-byte message with every other rank in
// turn, sending them out (a linear scatter) or collecting them in (a
// linear gather).
func linearRoot(r *mpi.Rank, m int, out bool) {
	const tag int32 = 2000
	switch {
	case r.ID() != 0 && out:
		r.Recv(0, tag)
	case r.ID() != 0:
		r.Send(0, tag, m)
	default:
		for p := 1; p < r.Size(); p++ {
			if out {
				r.Send(p, tag, m)
			} else {
				r.Recv(p, tag)
			}
		}
	}
}

func TestAlltoallAllAlgorithmsComplete(t *testing.T) {
	for _, alg := range Algorithms {
		for _, n := range []int{2, 4, 7, 8} {
			alg, n := alg, n
			t.Run(alg.String(), func(t *testing.T) {
				w := world(t, cluster.GigabitEthernet(), n, 17)
				m := Measure(w, 0, 1, func(r *mpi.Rank) { Alltoall(r, 10_000, alg) })
				if m.Times[0] <= 0 {
					t.Fatalf("n=%d: nonpositive completion time %v", n, m.Times[0])
				}
			})
		}
	}
}

func TestAlltoallMovesExpectedBytes(t *testing.T) {
	const n, m = 6, 5000
	cl := cluster.Build(cluster.GigabitEthernet(), n, 3)
	w := mpi.NewWorld(cl)
	Measure(w, 0, 1, func(r *mpi.Rank) { Alltoall(r, m, Direct) })
	st := cl.Fabric.TotalStats()
	// n(n-1) payload messages plus barrier/envelope traffic.
	wantPayload := int64(n * (n - 1) * m)
	if st.BytesSent < wantPayload {
		t.Fatalf("fabric carried %d bytes, want >= %d", st.BytesSent, wantPayload)
	}
	if st.BytesSent > wantPayload*2 {
		t.Fatalf("fabric carried %d bytes, far above payload %d: protocol overhead bug?", st.BytesSent, wantPayload)
	}
}

func TestAlltoallScalesWithMessageSize(t *testing.T) {
	run := func(m int) float64 {
		w := world(t, cluster.GigabitEthernet(), 6, 5)
		meas := Measure(w, 1, 2, func(r *mpi.Rank) { Alltoall(r, m, Direct) })
		return meas.Mean()
	}
	small, large := run(1_000), run(100_000)
	if large <= small {
		t.Fatalf("100kB alltoall (%v) not slower than 1kB (%v)", large, small)
	}
}

func TestAlltoallScalesWithRanks(t *testing.T) {
	run := func(n int) float64 {
		w := world(t, cluster.GigabitEthernet(), n, 6)
		meas := Measure(w, 1, 2, func(r *mpi.Rank) { Alltoall(r, 50_000, Direct) })
		return meas.Mean()
	}
	few, many := run(4), run(12)
	if many <= few {
		t.Fatalf("12-rank alltoall (%v) not slower than 4-rank (%v)", many, few)
	}
}

func TestAlltoallOnMyrinetLossless(t *testing.T) {
	cl := cluster.Build(cluster.Myrinet(), 8, 7)
	w := mpi.NewWorld(cl)
	meas := Measure(w, 1, 2, func(r *mpi.Rank) { Alltoall(r, 100_000, Direct) })
	if cl.Net.Drops() != 0 {
		t.Fatalf("myrinet dropped %d packets", cl.Net.Drops())
	}
	if meas.Mean() <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestAllgatherAndBcast(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		w := world(t, cluster.GigabitEthernet(), n, 9)
		meas := Measure(w, 0, 1, func(r *mpi.Rank) {
			Allgather(r, 5000)
			bcast(r, 0, 5000)
			bcast(r, n-1, 5000) // non-zero root exercises rank rotation
		})
		if meas.Times[0] <= 0 {
			t.Fatalf("n=%d: no time elapsed", n)
		}
	}
}

func TestBcastFasterThanLinearScatterForManyRanks(t *testing.T) {
	// Binomial broadcast is O(log n) rounds; linear scatter is O(n).
	// With equal per-message size the tree must win for larger n.
	const n, m = 16, 200_000
	wB := world(t, cluster.GigabitEthernet(), n, 10)
	bc := Measure(wB, 1, 2, func(r *mpi.Rank) { bcast(r, 0, m) })
	wS := world(t, cluster.GigabitEthernet(), n, 10)
	sc := Measure(wS, 1, 2, func(r *mpi.Rank) { linearRoot(r, m, true) })
	if bc.Mean() >= sc.Mean() {
		t.Fatalf("binomial bcast (%v) not faster than linear scatter (%v)", bc.Mean(), sc.Mean())
	}
}

func TestMeasureRepsIndependentAndPositive(t *testing.T) {
	w := world(t, cluster.GigabitEthernet(), 4, 11)
	meas := Measure(w, 2, 5, func(r *mpi.Rank) { Alltoall(r, 20_000, Direct) })
	if len(meas.Times) != 5 {
		t.Fatalf("got %d reps, want 5", len(meas.Times))
	}
	for i, tm := range meas.Times {
		if tm <= 0 {
			t.Fatalf("rep %d: nonpositive %v", i, tm)
		}
	}
	if lo, hi := slices.Min(meas.Times).Seconds(), slices.Max(meas.Times).Seconds(); meas.Mean() < lo || meas.Mean() > hi {
		t.Fatalf("mean %v outside the repetitions' range [%v, %v]", meas.Mean(), lo, hi)
	}
}

func TestDirectExchangeRoundStructure(t *testing.T) {
	// With Direct, each rank takes n-1 rounds; on an idle network the
	// completion time must be at least (n-1) * m / rate.
	const n, m = 8, 100_000
	w := world(t, cluster.GigabitEthernet(), n, 12)
	meas := Measure(w, 0, 1, func(r *mpi.Rank) { Alltoall(r, m, Direct) })
	lower := sim.TransmitTime((n-1)*m, 125_000_000).Seconds()
	if meas.Times[0].Seconds() < lower {
		t.Fatalf("completion %.6fs below physical lower bound %.6fs", meas.Times[0].Seconds(), lower)
	}
}

func TestBruckFewerRoundsThanDirectForSmallMessages(t *testing.T) {
	// For tiny messages, latency dominates: Bruck's log2(n) rounds beat
	// Direct's n-1 rounds.
	const n, m = 16, 64
	wD := world(t, cluster.FastEthernet(), n, 13)
	d := Measure(wD, 1, 3, func(r *mpi.Rank) { Alltoall(r, m, Direct) })
	wB := world(t, cluster.FastEthernet(), n, 13)
	b := Measure(wB, 1, 3, func(r *mpi.Rank) { Alltoall(r, m, Bruck) })
	if b.Mean() >= d.Mean() {
		t.Fatalf("bruck (%v) not faster than direct (%v) for %dB messages", b.Mean(), d.Mean(), m)
	}
}
