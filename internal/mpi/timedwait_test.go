package mpi

import (
	"testing"

	"repro/internal/sim"
)

// TestWaitTimeoutExpiresThenCompletes: a receive that outlives its
// timeout stays outstanding and still completes on a later Wait.
func TestWaitTimeoutExpiresThenCompletes(t *testing.T) {
	w := gigeWorld(t, 2, 1, 0)
	var timedOut bool
	var size int
	var done sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.p.Sleep(20 * sim.Millisecond)
			r.Send(1, 3, 1000)
		case 1:
			q := r.Irecv(0, 3)
			timedOut = !r.WaitAllTimeout(5*sim.Millisecond, q)
			r.Wait(q)
			size = q.size
			done = r.Now()
		}
	})
	if !timedOut {
		t.Fatal("WaitAllTimeout returned true before any send")
	}
	if size != 1000 {
		t.Fatalf("size = %d, want 1000", size)
	}
	if done < 20*sim.Millisecond {
		t.Fatalf("recv completed at %v, before the delayed send", done)
	}
}

// TestWaitTimeoutCompletesInTime: a send landing inside the window
// returns true.
func TestWaitTimeoutCompletesInTime(t *testing.T) {
	w := gigeWorld(t, 2, 2, 0)
	var ok bool
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, 1000)
		case 1:
			q := r.Irecv(0, 3)
			ok = r.WaitAllTimeout(50*sim.Millisecond, q)
		}
	})
	if !ok {
		t.Fatal("WaitAllTimeout timed out on a prompt send")
	}
}

// TestWaitAllTimeoutAbsoluteDeadline: the budget is one deadline across
// the whole set — a second request arriving past it fails the call even
// though the first completed, and the leftovers stay live.
func TestWaitAllTimeoutAbsoluteDeadline(t *testing.T) {
	w := gigeWorld(t, 2, 3, 0)
	var firstOK, secondOK, zeroOK bool
	var q1Done bool
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 1000)
			r.p.Sleep(30 * sim.Millisecond)
			r.Send(1, 2, 2000)
		case 1:
			q1 := r.Irecv(0, 1)
			q2 := r.Irecv(0, 2)
			firstOK = r.WaitAllTimeout(10*sim.Millisecond, q1, q2)
			q1Done = q1.Done()
			zeroOK = r.WaitAllTimeout(0, q2)
			secondOK = r.WaitAllTimeout(sim.Second, q1, q2)
		}
	})
	if firstOK {
		t.Fatal("deadline spanning only the first send reported full completion")
	}
	if !q1Done {
		t.Fatal("first receive not completed inside the window")
	}
	if zeroOK {
		t.Fatal("zero budget on an incomplete request returned true")
	}
	if !secondOK {
		t.Fatal("requests did not stay live across the failed deadline")
	}
}

// TestCancelRecv covers the three outcomes: an unmatched posted receive
// withdraws; a receive already satisfied from the unexpected queue does
// not; re-posting after a cancel still matches a late envelope.
func TestCancelRecv(t *testing.T) {
	w := gigeWorld(t, 2, 4, 0)
	var cancelledFresh, cancelledMatched bool
	var reposted int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 9, 500) // eager: buffers as unexpected on rank 1
			r.p.Sleep(20 * sim.Millisecond)
			r.Send(1, 8, 700)
		case 1:
			// Never-matched posting withdraws cleanly.
			stale := r.Irecv(0, 5)
			cancelledFresh = r.CancelRecv(stale)
			// Let the eager tag-9 envelope land in the unexpected queue,
			// so the next post matches it immediately.
			r.p.Sleep(10 * sim.Millisecond)
			matched := r.Irecv(0, 9)
			cancelledMatched = r.CancelRecv(matched)
			r.Wait(matched)
			// A fresh posting after the cancel pairs with a later send.
			q := r.Irecv(0, 8)
			r.Wait(q)
			reposted = q.size
		}
	})
	if !cancelledFresh {
		t.Fatal("unmatched posted receive refused to cancel")
	}
	if cancelledMatched {
		t.Fatal("already-matched receive claimed to cancel")
	}
	if reposted != 700 {
		t.Fatalf("re-posted receive got %d bytes, want 700", reposted)
	}
}
