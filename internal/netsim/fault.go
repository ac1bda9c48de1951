package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Fault injection. A FaultSchedule is a deterministic list of link and
// node faults resolved against a built network by ApplyFaults, which
// arms one simulator event per transition. The schedule is pure data —
// seeds, generation, and ground-truth queries live here; the event-loop
// effects are three flags the hot paths already check (egress.down,
// Device.lost, and the fluid waterfill's down-link freeze), so an empty
// schedule leaves a run bit-identical to an unfaulted one.

// Fault counter and event names published via the attached collector.
const (
	// CtrLinkDown counts link-down and link-degrade transitions fired.
	CtrLinkDown = "netsim.faults.link_down"
	// CtrLinkUp counts link recoveries fired.
	CtrLinkUp = "netsim.faults.link_up"
	// CtrNodeLost counts node-loss faults fired.
	CtrNodeLost = "netsim.faults.node_lost"
	// CtrBlackholed counts packets discarded on arrival at a lost host.
	CtrBlackholed = "netsim.pkts.blackholed"
)

// LinkFault takes one directed link down — or degrades it — for an
// interval of simulated time.
type LinkFault struct {
	// Port names the egress, in the "<owner>-><peer>" form Stats and
	// HostPorts report.
	Port string
	// At is when the fault strikes.
	At sim.Time
	// Until is when the link recovers; zero means the fault is
	// permanent. A permanently downed link never drains its queue, so
	// transports retrying across it keep the event loop alive — pair a
	// permanent link fault with a transport-level abort, or give it an
	// Until.
	Until sim.Time
	// RateFraction selects the failure mode: 0 takes the link fully
	// down (packets wait, fluid flows freeze); a value in (0, 1)
	// degrades the link to that fraction of its nominal rate instead.
	RateFraction float64
}

// NodeFault removes a host permanently at a point in simulated time:
// arriving packets blackhole, and every link touching the host goes
// down. There is no recovery — a lost node models a crash, and
// higher layers (coll failover) decide what survives it.
type NodeFault struct {
	// Host names the host device (Device.Name).
	Host string
	// At is when the node is lost.
	At sim.Time
}

// FaultSchedule is a deterministic set of faults to inject into one
// run. The zero value is the empty schedule: applying it arms no
// events and perturbs nothing.
type FaultSchedule struct {
	Links []LinkFault
	Nodes []NodeFault
}

// NodeLostBy reports whether the schedule loses the named host at or
// before time t — the ground truth a failure detector's oracle checks
// against when a rendezvous times out.
func (fs FaultSchedule) NodeLostBy(host string, t sim.Time) bool {
	for _, nf := range fs.Nodes {
		if nf.Host == host && nf.At <= t {
			return true
		}
	}
	return false
}

// FaultGenConfig bounds the random schedules GenFaultSchedule draws.
type FaultGenConfig struct {
	// LinkFlaps is the number of link up/down (or degrade) intervals to
	// draw across the given ports.
	LinkFlaps int
	// NodeLosses is the number of distinct hosts to lose.
	NodeLosses int
	// Horizon bounds fault start times: every fault strikes in
	// [0, Horizon).
	Horizon sim.Time
	// MinOutage and MaxOutage bound each link flap's duration.
	MinOutage, MaxOutage sim.Time
	// DegradeProb is the probability a drawn link fault degrades the
	// link (to a fraction in [0.05, 0.5]) instead of downing it.
	DegradeProb float64
}

// GenFaultSchedule draws a deterministic random schedule from the seed:
// LinkFlaps flap intervals over the given ports and NodeLosses losses
// over distinct hosts. The same seed, ports, hosts, and config always
// produce the same schedule.
func GenFaultSchedule(seed int64, ports, hosts []string, cfg FaultGenConfig) FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	var fs FaultSchedule
	if cfg.Horizon <= 0 {
		return fs
	}
	span := cfg.MaxOutage - cfg.MinOutage
	for i := 0; i < cfg.LinkFlaps && len(ports) > 0; i++ {
		at := sim.Time(rng.Int63n(int64(cfg.Horizon)))
		out := cfg.MinOutage
		if span > 0 {
			out += sim.Time(rng.Int63n(int64(span)))
		}
		frac := 0.0
		if rng.Float64() < cfg.DegradeProb {
			frac = 0.05 + 0.45*rng.Float64()
		}
		fs.Links = append(fs.Links, LinkFault{
			Port: ports[rng.Intn(len(ports))],
			At:   at, Until: at + out, RateFraction: frac,
		})
	}
	if cfg.NodeLosses > 0 && len(hosts) > 0 {
		perm := rng.Perm(len(hosts))
		n := cfg.NodeLosses
		if n > len(hosts) {
			n = len(hosts)
		}
		picked := append([]int(nil), perm[:n]...)
		sort.Ints(picked) // deterministic order independent of Perm internals
		for _, hi := range picked {
			fs.Nodes = append(fs.Nodes, NodeFault{
				Host: hosts[hi],
				At:   sim.Time(rng.Int63n(int64(cfg.Horizon))),
			})
		}
	}
	return fs
}

// faultTarget tracks per-egress fault nesting so overlapping intervals
// compose: the link recovers only when every active fault on it ends.
type faultTarget struct {
	e     *egress
	downN int
}

// ApplyFaults resolves the schedule against the network and arms one
// simulator event per transition. Call it after the topology is
// complete (ComputeRoutes) and before or after AttachCollector — fault
// events and counters are emitted through the collector attached at
// fire time. Unknown port or host names are an error. Applying an
// empty schedule arms nothing.
func (n *Network) ApplyFaults(fs FaultSchedule) error {
	byPort := map[string]*faultTarget{}
	for _, lf := range fs.Links {
		if _, ok := byPort[lf.Port]; ok {
			continue
		}
		e := n.findEgress(lf.Port)
		if e == nil {
			return fmt.Errorf("netsim: fault on unknown port %q", lf.Port)
		}
		byPort[lf.Port] = &faultTarget{e: e}
	}
	for _, lf := range fs.Links {
		lf := lf
		if lf.RateFraction < 0 || lf.RateFraction >= 1 {
			return fmt.Errorf("netsim: fault on %q: RateFraction %g outside [0, 1)", lf.Port, lf.RateFraction)
		}
		if lf.Until != 0 && lf.Until <= lf.At {
			return fmt.Errorf("netsim: fault on %q: Until %d not after At %d", lf.Port, lf.Until, lf.At)
		}
		t := byPort[lf.Port]
		if t.e.nominalRate == 0 {
			t.e.nominalRate = t.e.rate
		}
		n.sim.At(lf.At, func() { n.linkDown(t, lf.RateFraction) })
		if lf.Until != 0 {
			n.sim.At(lf.Until, func() { n.linkUp(t) })
		}
	}
	for _, nf := range fs.Nodes {
		nf := nf
		var host *Device
		for _, h := range n.hosts {
			if h.name == nf.Host {
				host = h
				break
			}
		}
		if host == nil {
			return fmt.Errorf("netsim: node fault on unknown host %q", nf.Host)
		}
		n.sim.At(nf.At, func() { n.nodeLost(host) })
	}
	return nil
}

// linkDown applies one link fault transition: full down when frac is 0,
// degradation to frac of nominal otherwise.
func (n *Network) linkDown(t *faultTarget, frac float64) {
	t.downN++
	if frac == 0 {
		t.e.down = true
	} else {
		r := int64(frac * float64(t.e.nominalRate))
		if r < 1 {
			r = 1
		}
		t.e.rate = r
	}
	n.obsC.Add(CtrLinkDown, 1)
	n.obsC.Event("netsim.link.down",
		obs.Str("port", t.e.name), obs.F64("fraction", frac))
	if n.fluid != nil {
		n.fluidRecompute()
	}
}

// linkUp ends one link fault; the link recovers when no fault remains
// active on it.
func (n *Network) linkUp(t *faultTarget) {
	t.downN--
	if t.downN > 0 {
		return
	}
	t.e.down = false
	t.e.rate = t.e.nominalRate
	n.obsC.Add(CtrLinkUp, 1)
	n.obsC.Event("netsim.link.up", obs.Str("port", t.e.name))
	t.e.maybeStart()
	if n.fluid != nil {
		n.fluidRecompute()
	}
}

// nodeLost removes a host: blackhole delivery, and every egress the
// host owns or terminates goes down, freezing packets and fluid flows
// in both directions. Permanent by design.
func (n *Network) nodeLost(host *Device) {
	if host.lost {
		return
	}
	host.lost = true
	for _, e := range host.egr {
		e.down = true
	}
	for _, d := range n.devices {
		for _, e := range d.egr {
			if e.peer == host {
				e.down = true
			}
		}
	}
	n.obsC.Add(CtrNodeLost, 1)
	n.obsC.Event("netsim.node.lost", obs.Str("host", host.name))
	if n.fluid != nil {
		n.fluidRecompute()
	}
}

// findEgress locates an egress by its "<owner>-><peer>" name.
func (n *Network) findEgress(name string) *egress {
	for _, d := range n.devices {
		for _, e := range d.egr {
			if e.name == name {
				return e
			}
		}
	}
	return nil
}

// HostPorts returns the names of every host NIC egress (the host's
// outbound port), in host order.
func (n *Network) HostPorts() []string {
	var out []string
	for _, h := range n.hosts {
		for _, e := range h.egr {
			out = append(out, e.name)
		}
	}
	return out
}
