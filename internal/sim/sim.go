package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// event is a scheduled callback. seq breaks timestamp ties so that events
// scheduled earlier run earlier, which makes runs reproducible.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Simulator owns the virtual clock and the pending event queue. It is not
// safe for concurrent use: all interaction must happen from the event loop
// goroutine or from the single active simulated process.
type Simulator struct {
	now    Time
	queue  eventHeap
	seq    uint64
	rng    *rand.Rand
	ctrl   chan struct{} // hand-back channel from active proc to the loop
	procs  []*Proc
	events uint64 // total events executed, for diagnostics
}

// New creates a simulator whose random stream is seeded with seed.
// Identical seeds yield identical simulations.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:  rand.New(rand.NewSource(seed)),
		ctrl: make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random stream.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Events returns the number of events executed so far.
func (s *Simulator) Events() uint64 { return s.events }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the caller; it is clamped to the present to keep the clock
// monotonic.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Run executes events in timestamp order until the queue drains. It
// returns the final simulated time.
func (s *Simulator) Run() Time {
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		s.events++
		ev.fn()
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline, then returns.
// The clock is advanced to deadline even if the queue drained earlier.
func (s *Simulator) RunUntil(deadline Time) Time {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		s.events++
		ev.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// blocked returns the processes that are parked waiting for a wakeup.
// After Run returns with an empty queue, a non-empty result indicates a
// deadlock in the simulated program.
func (s *Simulator) blocked() []*Proc {
	var out []*Proc
	for _, p := range s.procs {
		if p.state == procParked {
			out = append(out, p)
		}
	}
	return out
}

// MustQuiesce panics if any spawned process has not finished. Tests use it
// to assert deadlock-freedom of simulated protocols.
func (s *Simulator) MustQuiesce() {
	if blocked := s.blocked(); len(blocked) > 0 {
		names := make([]string, len(blocked))
		for i, p := range blocked {
			names[i] = p.name
		}
		panic(fmt.Sprintf("sim: deadlock, %d process(es) still blocked: %v", len(blocked), names))
	}
}
