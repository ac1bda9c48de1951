package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// gigeWorld builds a Gigabit Ethernet world whose profile switches to
// rendezvous above eager bytes (0: cluster.DefaultEagerThreshold).
func gigeWorld(t *testing.T, nodes int, seed int64, eager int) *World {
	t.Helper()
	p := cluster.GigabitEthernet()
	p.EagerThreshold = eager
	return NewWorld(cluster.Build(p, nodes, seed))
}

func TestBlockingSendRecv(t *testing.T) {
	w := gigeWorld(t, 2, 1, 0)
	var got int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, 1000)
		case 1:
			got = r.Recv(0, 7)
		}
	})
	if got != 1000 {
		t.Fatalf("recv size = %d, want 1000", got)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	w := gigeWorld(t, 2, 2, 1024)
	var got int
	var when sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 500_000) // well above threshold: rendezvous
		case 1:
			r.p.Sleep(3 * sim.Millisecond) // delayed recv: REQ waits unexpected
			got = r.Recv(0, 1)
			when = r.Now()
		}
	})
	if got != 500_000 {
		t.Fatalf("recv size = %d, want 500000", got)
	}
	// Payload must not have moved before the recv was posted: completion
	// strictly after the 3 ms sleep plus transfer time (≈4 ms at 1 Gb/s).
	if when < 6*sim.Millisecond {
		t.Fatalf("rendezvous completed at %v, should be after recv posting + transfer", when)
	}
}

func TestEagerBuffersBeforeRecvPosted(t *testing.T) {
	w := gigeWorld(t, 2, 3, 64<<10)
	var sendDone, recvDone sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 1000) // eager: completes locally at once
			sendDone = r.Now()
		case 1:
			r.p.Sleep(5 * sim.Millisecond)
			r.Recv(0, 1)
			recvDone = r.Now()
		}
	})
	if sendDone > sim.Millisecond {
		t.Fatalf("eager send completed at %v, want ~immediately", sendDone)
	}
	// Data was already here; recv completes right after posting.
	if recvDone > 6*sim.Millisecond {
		t.Fatalf("recv of buffered eager message at %v, want ≈5ms", recvDone)
	}
}

// TestProfileThresholdPicksProtocol: the same 32 KiB send is eager under
// the default 64 KiB switch and rendezvous (it waits for the late
// receiver's clear-to-send) when the profile lowers the switch to 16 KiB.
func TestProfileThresholdPicksProtocol(t *testing.T) {
	sendDone := func(eager int) sim.Time {
		var done sim.Time
		gigeWorld(t, 2, 3, eager).Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 1, 32<<10)
				done = r.Now()
			case 1:
				r.p.Sleep(5 * sim.Millisecond)
				r.Recv(0, 1)
			}
		})
		return done
	}
	if got := sendDone(0); got > sim.Millisecond {
		t.Fatalf("default threshold: send completed at %v, want eager (~immediately)", got)
	}
	if got := sendDone(16 << 10); got < 5*sim.Millisecond {
		t.Fatalf("16 KiB threshold: send completed at %v, want rendezvous (after the 5 ms recv)", got)
	}
}

func TestTagMatchingOrder(t *testing.T) {
	w := gigeWorld(t, 2, 4, 0)
	var sizes []int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 10, 100)
			r.Send(1, 20, 200)
			r.Send(1, 10, 300)
		case 1:
			sizes = append(sizes, r.Recv(0, 20)) // out-of-tag-order recv
			sizes = append(sizes, r.Recv(0, 10))
			sizes = append(sizes, r.Recv(0, 10))
		}
	})
	if len(sizes) != 3 || sizes[0] != 200 || sizes[1] != 100 || sizes[2] != 300 {
		t.Fatalf("tag matching wrong: %v", sizes)
	}
}

func TestAnyTag(t *testing.T) {
	w := gigeWorld(t, 2, 5, 0)
	var got int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 99, 4321)
		case 1:
			got = r.Recv(0, AnyTag)
		}
	})
	if got != 4321 {
		t.Fatalf("AnyTag recv = %d, want 4321", got)
	}
}

func TestNonblockingWaitAll(t *testing.T) {
	w := gigeWorld(t, 3, 6, 0)
	var got [3]int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			q1 := r.Irecv(1, 1)
			q2 := r.Irecv(2, 1)
			r.WaitAll(q1, q2)
			got[1], got[2] = q1.size, q2.size
		default:
			r.Send(0, 1, 1000*r.ID())
		}
	})
	if got[1] != 1000 || got[2] != 2000 {
		t.Fatalf("waitall sizes: %v", got)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := gigeWorld(t, 4, 7, 0)
	n := 4
	var ok [4]bool
	w.Run(func(r *Rank) {
		dst := (r.ID() + 1) % n
		src := (r.ID() - 1 + n) % n
		got := r.Sendrecv(dst, 5, 100+r.ID(), src, 5)
		ok[r.ID()] = got == 100+src
	})
	for i, v := range ok {
		if !v {
			t.Fatalf("rank %d ring exchange failed", i)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := gigeWorld(t, 8, 8, 0)
	var before, after [8]sim.Time
	w.Run(func(r *Rank) {
		// Stagger arrivals deliberately.
		r.p.Sleep(sim.Time(r.ID()) * sim.Millisecond)
		before[r.ID()] = r.Now()
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	var maxBefore, minAfter sim.Time
	minAfter = 1 << 62
	for i := 0; i < 8; i++ {
		if before[i] > maxBefore {
			maxBefore = before[i]
		}
		if after[i] < minAfter {
			minAfter = after[i]
		}
	}
	if minAfter < maxBefore {
		t.Fatalf("barrier leaked: a rank exited (%v) before the last arrived (%v)", minAfter, maxBefore)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	w := gigeWorld(t, 5, 9, 0)
	counts := make([]int, 5)
	w.Run(func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Barrier()
			counts[r.ID()]++
		}
	})
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("rank %d completed %d barriers, want 10", i, c)
		}
	}
}

func TestManyPairsSimultaneously(t *testing.T) {
	const n = 10
	w := gigeWorld(t, n, 10, 0)
	var recvTotal [n]int
	w.Run(func(r *Rank) {
		// Each rank exchanges with every other rank, all at once.
		var qs []*Request
		for peer := 0; peer < n; peer++ {
			if peer == r.ID() {
				continue
			}
			qs = append(qs, r.Irecv(peer, 3))
		}
		for peer := 0; peer < n; peer++ {
			if peer == r.ID() {
				continue
			}
			qs = append(qs, r.Isend(peer, 3, 10_000))
		}
		r.WaitAll(qs...)
		for _, q := range qs {
			if q.isRecv {
				recvTotal[r.ID()] += q.size
			}
		}
	})
	for i := 0; i < n; i++ {
		if recvTotal[i] != (n-1)*10_000 {
			t.Fatalf("rank %d received %d bytes, want %d", i, recvTotal[i], (n-1)*10_000)
		}
	}
}

func TestSelfSendPanics(t *testing.T) {
	w := gigeWorld(t, 2, 11, 0)
	panicked := false
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Send(0, 1, 10)
			}()
		}
	})
	if !panicked {
		t.Fatal("expected panic on self-send")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		w := gigeWorld(t, 6, 99, 0)
		return w.Run(func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.Barrier()
				dst := (r.ID() + 1 + i) % r.Size()
				src := (r.ID() - 1 - i%r.Size() + 2*r.Size()) % r.Size()
				if dst != r.ID() && src != r.ID() {
					r.Sendrecv(dst, 1, 50_000, src, 1)
				}
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic world runs: %v vs %v", a, b)
	}
}

func TestZeroSizeSend(t *testing.T) {
	// Size-0 payloads must work: the envelope still travels.
	w := gigeWorld(t, 2, 12, 0)
	var got = -1
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 0)
		case 1:
			got = r.Recv(0, 1)
		}
	})
	if got != 0 {
		t.Fatalf("zero-size recv = %d, want 0", got)
	}
}
