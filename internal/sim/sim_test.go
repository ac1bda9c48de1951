package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	s := New(1)
	var hits []Time
	s.At(10, func() {
		s.After(5, func() { hits = append(hits, s.Now()) })
		s.After(1, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 11 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.At(100, func() {
		s.At(50, func() { fired = s.Now() }) // in the past: clamp to now
	})
	s.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("RunUntil(50) executed %d events, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("drain executed %d total, want 10", count)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake []Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(25)
		wake = append(wake, p.Now())
	})
	s.Run()
	if len(wake) != 2 || wake[0] != 10 || wake[1] != 35 {
		t.Fatalf("sleep wakeups = %v, want [10 35]", wake)
	}
	s.MustQuiesce()
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var trace []string
	mk := func(name string, d Time) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 10)
	mk("b", 15)
	s.Run()
	// Wakeups: a@10, b@15, a@20, then both at t=30 where b's event was
	// scheduled first (at t=15 vs t=20), then b@45.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

func TestFuture(t *testing.T) {
	s := New(1)
	var f Future
	var got Time
	s.Spawn("waiter", func(p *Proc) {
		p.Await(&f)
		got = p.Now()
	})
	s.At(42, func() { f.Complete(s) })
	s.Run()
	if got != 42 {
		t.Fatalf("waiter resumed at %v, want 42", got)
	}
	// Awaiting a completed future returns immediately.
	var resumed Time
	s.Spawn("late", func(p *Proc) {
		p.Await(&f)
		resumed = p.Now()
	})
	s.Run()
	if resumed != 42 {
		t.Fatalf("late waiter at %v, want 42 (no extra delay)", resumed)
	}
	s.MustQuiesce()
}

func TestFutureMultipleWaitersFIFO(t *testing.T) {
	s := New(1)
	var f Future
	var order []string
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Await(&f)
			order = append(order, name)
		})
	}
	s.At(5, func() { f.Complete(s) })
	s.Run()
	if len(order) != 3 || order[0] != "w0" || order[1] != "w1" || order[2] != "w2" {
		t.Fatalf("waiter wake order = %v", order)
	}
}

func TestBlockedDetection(t *testing.T) {
	s := New(1)
	var f Future
	s.Spawn("stuck", func(p *Proc) { p.Await(&f) })
	s.Run()
	if len(s.blocked()) != 1 {
		t.Fatalf("expected 1 blocked proc, got %d", len(s.blocked()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuiesce should panic on blocked procs")
		}
		// Unblock so the goroutine can finish.
		f.Complete(s)
		s.Run()
	}()
	s.MustQuiesce()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var stamps []Time
		for i := 0; i < 4; i++ {
			s.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Time(1 + s.Rand().Intn(100)))
					stamps = append(stamps, p.Now())
				}
			})
		}
		s.Run()
		return stamps
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestTransmitTime(t *testing.T) {
	cases := []struct {
		size int
		rate int64
		want Time
	}{
		{1500, 125_000_000, 12_000}, // 1500 B at 1 Gbit/s = 12 µs
		{1500, 12_500_000, 120_000}, // 1500 B at 100 Mbit/s = 120 µs
		{1, 1_000_000_000, 1},       // rounds up to 1 ns
		{0, 125_000_000, 0},         // empty payload is free
		{32 << 20, 125_000_000, Time(int64(32<<20) * int64(Second) / 125_000_000)},
	}
	for _, c := range cases {
		if got := TransmitTime(c.size, c.rate); got != c.want {
			t.Errorf("TransmitTime(%d, %d) = %v, want %v", c.size, c.rate, got, c.want)
		}
	}
}

func TestTransmitTimeProperties(t *testing.T) {
	// Monotone in size, and never zero for positive size.
	prop := func(a, b uint16, rate uint32) bool {
		r := int64(rate%1_000_000_000) + 1
		sa, sb := int(a), int(a)+int(b)
		ta, tb := TransmitTime(sa, r), TransmitTime(sb, r)
		if sa > 0 && ta <= 0 {
			return false
		}
		return tb >= ta
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds() = %v", (2 * Second).Seconds())
	}
	prop := func(ms uint32) bool {
		// Round trip through float64 seconds is exact to within 1 ns
		// (large values lose the last bit of the decimal fraction).
		tm := Time(ms) * Millisecond
		diff := FromSeconds(tm.Seconds()) - tm
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		1500 * Millisecond: "1.500000s",
		3 * Millisecond:    "3.000ms",
		7 * Microsecond:    "7.000µs",
		12 * Nanosecond:    "12ns",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}
