package netsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// faultWANPair is wanPair with distinct device names, so egress port
// names ("a->swA", "rtA->rtB", ...) are unambiguous fault targets.
func faultWANPair(t *testing.T, wanRate int64, wanLat sim.Time) (*sim.Simulator, *Network) {
	t.Helper()
	s := sim.New(1)
	n := New(s)
	lan := LinkConfig{Rate: testRate, Latency: 10 * sim.Microsecond}
	wan := LinkConfig{Rate: wanRate, Latency: wanLat}
	port := PortConfig{Buffer: 64 << 10}
	a := n.AddHost("a")
	swA := n.AddSwitch("swA", SwitchConfig{PortBuffer: 1 << 20})
	rtA := n.AddRouter("rtA", RouterConfig{ProcDelay: sim.Microsecond})
	b := n.AddHost("b")
	swB := n.AddSwitch("swB", SwitchConfig{PortBuffer: 1 << 20})
	rtB := n.AddRouter("rtB", RouterConfig{ProcDelay: sim.Microsecond})
	n.Connect(a, swA, lan)
	n.Connect(swA, rtA, lan)
	n.Connect(b, swB, lan)
	n.Connect(swB, rtB, lan)
	n.ConnectPorts(rtA, rtB, wan, wan, port, port)
	n.ComputeRoutes()
	return s, n
}

// TestLinkFaultDownDelaysDelivery: a packet injected during an outage
// waits in the egress queue and serializes only after recovery.
func TestLinkFaultDownDelaysDelivery(t *testing.T) {
	s, n, _, b := twoHostsDirect(t)
	fs := FaultSchedule{Links: []LinkFault{
		{Port: "a->b", At: sim.Millisecond, Until: 20 * sim.Millisecond},
	}}
	if err := n.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	var arrival sim.Time
	b.SetHandler(func(pkt *Packet) { arrival = s.Now() })
	s.At(5*sim.Millisecond, func() { n.Inject(&Packet{Src: 0, Dst: 1, Size: 1000}) })
	s.Run()
	// Recovery at 20ms, then serialize (1ms) + propagate (10µs).
	want := 20*sim.Millisecond + sim.Millisecond + 10*sim.Microsecond
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

// TestLinkFaultDegradeSlowsSerialization: RateFraction 0.5 doubles
// serialization time while the fault is active, and the link returns to
// nominal speed after Until.
func TestLinkFaultDegradeSlowsSerialization(t *testing.T) {
	s, n, _, b := twoHostsDirect(t)
	fs := FaultSchedule{Links: []LinkFault{
		{Port: "a->b", At: sim.Millisecond, Until: 50 * sim.Millisecond, RateFraction: 0.5},
	}}
	if err := n.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	var arrivals []sim.Time
	b.SetHandler(func(pkt *Packet) { arrivals = append(arrivals, s.Now()) })
	s.At(5*sim.Millisecond, func() { n.Inject(&Packet{Src: 0, Dst: 1, Size: 1000, Seq: 1}) })
	s.At(60*sim.Millisecond, func() { n.Inject(&Packet{Src: 0, Dst: 1, Size: 1000, Seq: 2}) })
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	// Degraded to testRate/2: 1000 bytes serialize in 2ms instead of 1ms.
	if want := 5*sim.Millisecond + 2*sim.Millisecond + 10*sim.Microsecond; arrivals[0] != want {
		t.Fatalf("degraded arrival = %v, want %v", arrivals[0], want)
	}
	// After Until the nominal rate is restored.
	if want := 60*sim.Millisecond + sim.Millisecond + 10*sim.Microsecond; arrivals[1] != want {
		t.Fatalf("recovered arrival = %v, want %v", arrivals[1], want)
	}
}

// TestOverlappingLinkFaultsCompose: two overlapping outages on the same
// port recover only when the last one ends (the downN refcount).
func TestOverlappingLinkFaultsCompose(t *testing.T) {
	s, n, _, b := twoHostsDirect(t)
	fs := FaultSchedule{Links: []LinkFault{
		{Port: "a->b", At: sim.Millisecond, Until: 10 * sim.Millisecond},
		{Port: "a->b", At: 5 * sim.Millisecond, Until: 30 * sim.Millisecond},
	}}
	if err := n.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	var arrival sim.Time
	b.SetHandler(func(pkt *Packet) { arrival = s.Now() })
	s.At(2*sim.Millisecond, func() { n.Inject(&Packet{Src: 0, Dst: 1, Size: 1000}) })
	s.Run()
	want := 30*sim.Millisecond + sim.Millisecond + 10*sim.Microsecond
	if arrival != want {
		t.Fatalf("arrival = %v, want %v (first recovery must not reopen the link)", arrival, want)
	}
}

// TestNodeLostBlackholesDelivery: a packet in flight when its
// destination dies is discarded at delivery, counted, and never handed
// to the handler.
func TestNodeLostBlackholesDelivery(t *testing.T) {
	s, n, _, b := twoHostsDirect(t)
	c := obs.New()
	n.AttachCollector(c)
	fs := FaultSchedule{Nodes: []NodeFault{{Host: "b", At: 500 * sim.Microsecond}}}
	if err := n.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	b.SetHandler(func(pkt *Packet) { delivered++ })
	n.Inject(&Packet{Src: 0, Dst: 1, Size: 1000}) // arrives ~1.01ms, after the loss
	s.Run()
	if delivered != 0 {
		t.Fatalf("handler ran %d times on a lost host", delivered)
	}
	if !b.lost {
		t.Fatal("host b not marked lost")
	}
	if b.Blackholed != 1 {
		t.Fatalf("Blackholed = %d, want 1", b.Blackholed)
	}
	if got := c.Counter(CtrBlackholed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrBlackholed, got)
	}
	if got := c.Counter(CtrNodeLost).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrNodeLost, got)
	}
}

// TestFaultCounters pins the transition counters emitted through an
// attached collector.
func TestFaultCounters(t *testing.T) {
	s, n, _, _ := twoHostsDirect(t)
	c := obs.New()
	n.AttachCollector(c)
	fs := FaultSchedule{Links: []LinkFault{
		{Port: "a->b", At: sim.Millisecond, Until: 2 * sim.Millisecond},
		{Port: "b->a", At: sim.Millisecond, Until: 3 * sim.Millisecond, RateFraction: 0.25},
	}}
	if err := n.ApplyFaults(fs); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := c.Counter(CtrLinkDown).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", CtrLinkDown, got)
	}
	if got := c.Counter(CtrLinkUp).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", CtrLinkUp, got)
	}
}

// TestApplyFaultsValidates rejects unknown targets and malformed
// intervals up front, before arming any events.
func TestApplyFaultsValidates(t *testing.T) {
	cases := []struct {
		name string
		fs   FaultSchedule
		want string
	}{
		{"unknown port", FaultSchedule{Links: []LinkFault{{Port: "x->y", At: 1}}}, "unknown port"},
		{"unknown host", FaultSchedule{Nodes: []NodeFault{{Host: "zz", At: 1}}}, "unknown host"},
		{"fraction one", FaultSchedule{Links: []LinkFault{{Port: "a->b", At: 1, RateFraction: 1}}}, "RateFraction"},
		{"fraction negative", FaultSchedule{Links: []LinkFault{{Port: "a->b", At: 1, RateFraction: -0.1}}}, "RateFraction"},
		{"until before at", FaultSchedule{Links: []LinkFault{{Port: "a->b", At: 5, Until: 3}}}, "not after"},
	}
	for _, tc := range cases {
		_, n, _, _ := twoHostsDirect(t)
		err := n.ApplyFaults(tc.fs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultScheduleQueries covers the NodeLostBy oracle.
func TestFaultScheduleQueries(t *testing.T) {
	fs := FaultSchedule{Nodes: []NodeFault{{Host: "h2", At: 10 * sim.Millisecond}}}
	if fs.NodeLostBy("h2", 9*sim.Millisecond) {
		t.Fatal("host reported lost before its fault time")
	}
	if !fs.NodeLostBy("h2", 10*sim.Millisecond) {
		t.Fatal("host not lost at its fault time")
	}
	if fs.NodeLostBy("h3", sim.Second) {
		t.Fatal("unfaulted host reported lost")
	}
}

// TestGenFaultScheduleDeterministic: same seed and inputs reproduce the
// schedule exactly; a different seed perturbs it; all draws respect the
// configured bounds; zero horizon yields the empty schedule.
func TestGenFaultScheduleDeterministic(t *testing.T) {
	ports := []string{"p0", "p1", "p2"}
	hosts := []string{"h0", "h1", "h2", "h3"}
	cfg := FaultGenConfig{
		LinkFlaps: 5, NodeLosses: 2, Horizon: sim.Second,
		MinOutage: 10 * sim.Millisecond, MaxOutage: 100 * sim.Millisecond,
		DegradeProb: 0.5,
	}
	a := GenFaultSchedule(42, ports, hosts, cfg)
	b := GenFaultSchedule(42, ports, hosts, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if c := GenFaultSchedule(43, ports, hosts, cfg); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Links) != cfg.LinkFlaps || len(a.Nodes) != cfg.NodeLosses {
		t.Fatalf("drew %d links / %d nodes, want %d / %d",
			len(a.Links), len(a.Nodes), cfg.LinkFlaps, cfg.NodeLosses)
	}
	for _, lf := range a.Links {
		if lf.At < 0 || lf.At >= cfg.Horizon {
			t.Fatalf("link fault at %v outside horizon", lf.At)
		}
		if out := lf.Until - lf.At; out < cfg.MinOutage || out > cfg.MaxOutage {
			t.Fatalf("outage %v outside [%v, %v]", out, cfg.MinOutage, cfg.MaxOutage)
		}
		if lf.RateFraction != 0 && (lf.RateFraction < 0.05 || lf.RateFraction > 0.5) {
			t.Fatalf("degrade fraction %g outside [0.05, 0.5]", lf.RateFraction)
		}
	}
	seen := map[string]bool{}
	for _, nf := range a.Nodes {
		if seen[nf.Host] {
			t.Fatalf("host %s lost twice", nf.Host)
		}
		seen[nf.Host] = true
	}
	if got := GenFaultSchedule(42, ports, hosts, FaultGenConfig{LinkFlaps: 3}); len(got.Links)+len(got.Nodes) != 0 {
		t.Fatalf("zero horizon drew %+v", got)
	}
}

// TestWANAndHostPorts pins which egresses count as WAN tier links
// (router→router, the ones the WAN byte counter and the fluid engine
// single out) and the HostPorts listing fault generators seed from.
func TestWANAndHostPorts(t *testing.T) {
	_, n := faultWANPair(t, testRate/2, 5*sim.Millisecond)
	var wan []string
	for _, d := range n.devices {
		for _, e := range d.egr {
			if e.wan {
				wan = append(wan, e.name)
			}
		}
	}
	if !reflect.DeepEqual(wan, []string{"rtA->rtB", "rtB->rtA"}) {
		t.Fatalf("WAN egresses = %v", wan)
	}
	hp := n.HostPorts()
	if !reflect.DeepEqual(hp, []string{"a->swA", "b->swB"}) {
		t.Fatalf("HostPorts = %v", hp)
	}
}

// TestFluidFlowFreezesAcrossOutage: in fluid mode a WAN outage freezes
// the flow's progress for the outage duration and the waterfill resumes
// it afterwards.
func TestFluidFlowFreezesAcrossOutage(t *testing.T) {
	base := func(fs FaultSchedule) sim.Time {
		s, n := faultWANPair(t, testRate/2, 5*sim.Millisecond)
		n.EnableFluid(FluidConfig{})
		if err := n.ApplyFaults(fs); err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		n.StartFluidFlow(0, 1, 1_000_000, 10*testRate, nil, func() { done = s.Now() })
		s.Run()
		if done == 0 {
			t.Fatal("flow never completed")
		}
		return done
	}
	clean := base(FaultSchedule{})
	outage := 50 * sim.Millisecond
	faulted := base(FaultSchedule{Links: []LinkFault{
		{Port: "rtA->rtB", At: 10 * sim.Millisecond, Until: 10*sim.Millisecond + outage},
	}})
	delta := faulted - clean
	if delta < outage*9/10 || delta > outage*11/10 {
		t.Fatalf("outage shifted completion by %v, want ≈%v (clean %v, faulted %v)",
			delta, outage, clean, faulted)
	}
}
