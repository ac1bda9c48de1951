package sim

import "fmt"

type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process. Its body runs on a dedicated goroutine, but
// the scheduler guarantees that at most one process goroutine (or the event
// loop) executes at a time, with explicit hand-off, so simulated code needs
// no locking and behaves deterministically.
type Proc struct {
	sim    *Simulator
	name   string
	resume chan struct{}
	state  procState
}

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn schedules a new process to start at the current simulated time.
// The body receives the Proc, whose blocking primitives (Sleep, Await)
// advance simulated time.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	s.After(0, func() { p.start(body) })
	return p
}

// SpawnAt is Spawn with an explicit start time.
func (s *Simulator) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	s.At(t, func() { p.start(body) })
	return p
}

// start launches the process goroutine and transfers control to it until
// it parks or finishes. Runs on the event-loop goroutine.
func (p *Proc) start(body func(*Proc)) {
	p.state = procRunning
	go func() {
		body(p)
		p.state = procDone
		p.sim.ctrl <- struct{}{}
	}()
	<-p.sim.ctrl
}

// park suspends the calling process goroutine and returns control to the
// event loop. It resumes when unparkNow is invoked for this process.
func (p *Proc) park() {
	p.state = procParked
	p.sim.ctrl <- struct{}{}
	<-p.resume
	p.state = procRunning
}

// unparkNow transfers control to the parked process until it parks again
// or finishes. Must only be called from the event-loop goroutine (i.e.
// from inside a scheduled event).
func (p *Proc) unparkNow() {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: unpark of process %q in state %d", p.name, p.state))
	}
	p.resume <- struct{}{}
	<-p.sim.ctrl
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.sim.After(d, func() { p.unparkNow() })
	p.park()
}

// futWaiter is one parked process waiting on a Future. A timed wait that
// gives up marks its entry cancelled rather than removing it, so the
// completion wake-up path can skip it without disturbing wait order.
type futWaiter struct {
	p         *Proc
	cancelled bool
}

// Future is a one-shot completion that processes can Await. Completing a
// future wakes all waiters at the current simulated time (in wait order).
// The zero value is ready to use.
type Future struct {
	done    bool
	waiters []*futWaiter
}

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done and schedules all waiters to resume.
// Completing twice is a no-op.
func (f *Future) Complete(s *Simulator) {
	if f.done {
		return
	}
	f.done = true
	for _, w := range f.waiters {
		w := w
		s.After(0, func() {
			if !w.cancelled {
				w.p.unparkNow()
			}
		})
	}
	f.waiters = nil
}

// Await blocks the process until the future completes. Returns immediately
// if it already has.
func (p *Proc) Await(f *Future) {
	if f.done {
		return
	}
	f.waiters = append(f.waiters, &futWaiter{p: p})
	p.park()
}

// AwaitTimeout blocks until the future completes or d of simulated time
// elapses, whichever comes first. It returns true if the future completed
// and false on timeout; a same-instant tie resolves in event-queue order
// (whichever event was scheduled first). A false return leaves the
// future's other waiters untouched; this process simply stops waiting.
func (p *Proc) AwaitTimeout(f *Future, d Time) bool {
	if f.done {
		return true
	}
	w := &futWaiter{p: p}
	f.waiters = append(f.waiters, w)
	completed := false
	p.sim.After(d, func() {
		// If the future completed first, its wake-up already ran (or is
		// queued ahead of us and set completed before this fires — wake
		// events are scheduled the moment Complete runs, so they sort
		// before this timer whenever completion is not later). Cancelling
		// after completion would be a lost wake-up; the completed flag
		// guards that. If the waiter is still live, cancel it and wake
		// the process ourselves so it can report the timeout.
		if !completed && !w.cancelled {
			w.cancelled = true
			p.unparkNow()
		}
	})
	p.park()
	if w.cancelled {
		return false
	}
	completed = true
	return true
}
