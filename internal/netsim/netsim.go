// Package netsim models cluster interconnect hardware at packet
// granularity on top of the sim event core: hosts with full-duplex NICs,
// store-and-forward switches with finite per-output-port buffers, and
// point-to-point links with configurable rate and propagation latency.
//
// Two congestion disciplines are supported, matching the two families of
// networks in the paper:
//
//   - Lossy (Ethernet-like): a packet arriving at a full switch output
//     queue is tail-dropped. Loss recovery is the transport's problem,
//     and the recovery cost (TCP retransmission timeouts) is what creates
//     the contention penalty the paper measures.
//   - Lossless (Myrinet-like): an upstream transmitter reserves buffer
//     space in the downstream output queue before serializing a packet;
//     if no space is available the transmitter stalls (link-level
//     backpressure), which produces head-of-line blocking and transfer
//     serialization instead of loss.
//
// Contention is therefore emergent: nothing in this package knows about
// All-to-All or about the paper's γ and δ parameters.
package netsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies a host (an MPI-process-capable endpoint).
type NodeID int

// Packet is the unit of transmission. Transports define the semantics of
// Flow, Seq, Kind and Aux; the network layer only reads Src, Dst and Size.
type Packet struct {
	Src, Dst NodeID
	Flow     uint64 // demultiplexing key at the destination host
	Seq      int64  // transport sequence (byte or packet number)
	Ack      int64  // transport cumulative acknowledgment
	Size     int    // total wire size in bytes (headers included)
	Payload  int    // payload bytes carried
	Kind     uint8  // transport-defined packet type
	Prio     bool   // control-priority (e.g. pure ACKs): served first,
	// never tail-dropped. Models 802.1p/TOS control-frame priority and
	// avoids the ACK-compression artifact a single-FIFO model would
	// introduce.
}

// LinkConfig describes one direction of a physical link.
type LinkConfig struct {
	Rate    int64    // bytes per second
	Latency sim.Time // one-way propagation + per-hop processing delay
}

// SwitchConfig describes a switch's queueing discipline.
type SwitchConfig struct {
	PortBuffer int  // bytes of buffer per output port (0 = unbounded)
	Lossless   bool // true: credit backpressure; false: tail-drop
}

// Network is a set of devices plus the routing tables connecting them.
type Network struct {
	sim     *sim.Simulator
	devices []*Device
	hosts   []*Device // devices with a host role, indexed by NodeID

	// fluid, when non-nil, enables flow-level pricing of large
	// transfers (see EnableFluid); obsC remembers the attached
	// collector so EnableFluid and AttachCollector compose in either
	// order.
	fluid *fluidState
	obsC  *obs.Collector
}

// New creates an empty network bound to a simulator.
func New(s *sim.Simulator) *Network {
	return &Network{sim: s}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Device is a network element: either a host (traffic endpoint) or a
// switch (forwarder). Hosts are devices whose host field is non-nil.
type Device struct {
	net      *Network
	name     string
	id       NodeID // valid only for hosts
	isHost   bool
	isRouter bool
	cfg      SwitchConfig
	// Router-only per-packet forwarding delay (see RouterConfig).
	procDelay sim.Time
	egr       []*egress
	routes    map[NodeID]*egress

	// Host-only: transport demultiplexer, set via SetHandler.
	handler func(pkt *Packet)

	// Host-only receive-side software cost: each arriving packet is
	// processed serially by the host CPU for rxCost before delivery.
	// Models the kernel TCP + MPI progress-engine path, whose per-
	// packet cost grows with the number of open connections in
	// select()-based stacks; zero disables the stage (kernel-bypass
	// stacks like GM).
	rxCost  sim.Time
	cpuBusy bool
	cpuQ    []*Packet

	// lost marks a host removed by a node-loss fault (ApplyFaults):
	// arriving packets are blackholed instead of delivered, and every
	// egress touching the host is down. Permanent — node loss has no
	// recovery event.
	lost bool

	// Counters.
	RxPackets uint64
	RxBytes   uint64
	// Blackholed counts packets dropped at delivery because the host was
	// lost when they arrived.
	Blackholed uint64
}

// SetRxCost configures the per-packet receive processing cost.
func (d *Device) SetRxCost(c sim.Time) {
	if !d.isHost {
		panic("netsim: SetRxCost on a switch")
	}
	d.rxCost = c
}

// deliver hands a packet to the transport handler. A lost host
// blackholes instead: the packet is counted and discarded, producing
// the silence (no ACKs, no data) a crashed node presents to its peers.
func (d *Device) deliver(pkt *Packet) {
	if d.lost {
		d.Blackholed++
		d.net.obsC.Add(CtrBlackholed, 1)
		return
	}
	d.RxPackets++
	d.RxBytes += uint64(pkt.Size)
	if d.handler != nil {
		d.handler(pkt)
	}
}

// cpuStep serves the receive-processing queue serially.
func (d *Device) cpuStep() {
	if d.cpuBusy || len(d.cpuQ) == 0 {
		return
	}
	pkt := d.cpuQ[0]
	copy(d.cpuQ, d.cpuQ[1:])
	d.cpuQ[len(d.cpuQ)-1] = nil
	d.cpuQ = d.cpuQ[:len(d.cpuQ)-1]
	d.cpuBusy = true
	d.net.sim.After(d.rxCost, func() {
		d.cpuBusy = false
		d.deliver(pkt)
		d.cpuStep()
	})
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// ID returns the host's NodeID; calling it on a switch panics.
func (d *Device) ID() NodeID {
	if !d.isHost {
		panic("netsim: ID on a switch")
	}
	return d.id
}

// AddHost creates a new host device. NodeIDs are assigned densely in
// creation order.
func (n *Network) AddHost(name string) *Device {
	d := &Device{net: n, name: name, id: NodeID(len(n.hosts)), isHost: true}
	n.devices = append(n.devices, d)
	n.hosts = append(n.hosts, d)
	return d
}

// AddSwitch creates a new switch device with the given queueing config.
func (n *Network) AddSwitch(name string, cfg SwitchConfig) *Device {
	d := &Device{net: n, name: name, cfg: cfg}
	n.devices = append(n.devices, d)
	return d
}

// NumHosts returns the number of hosts added so far.
func (n *Network) NumHosts() int { return len(n.hosts) }

// Host returns the host device with the given id.
func (n *Network) Host(id NodeID) *Device { return n.hosts[id] }

// SetHandler installs the packet delivery callback for a host. Packets
// addressed to the host are handed to the callback in arrival order.
func (d *Device) SetHandler(h func(pkt *Packet)) {
	if !d.isHost {
		panic("netsim: SetHandler on a switch")
	}
	d.handler = h
}

// Connect joins two devices with a full-duplex link (one egress queue per
// direction, both using cfg). Queue capacity and discipline for each
// direction come from the *downstream* device when it is a switch, since
// the buffer being modeled is the switch's output buffer; traffic flowing
// into a host is drained immediately and needs no finite queue.
func (n *Network) Connect(a, b *Device, cfg LinkConfig) {
	n.connectDir(a, b, cfg)
	n.connectDir(b, a, cfg)
}

// connectDir creates the a→b egress on device a.
func (n *Network) connectDir(a, b *Device, cfg LinkConfig) {
	e := &egress{
		sim:  n.sim,
		name: fmt.Sprintf("%s->%s", a.name, b.name),
		rate: cfg.Rate, latency: cfg.Latency,
		owner: a, peer: b,
		wan: a.isRouter && b.isRouter,
	}
	// The egress queue on device a is a's output buffer. Hosts get an
	// unbounded output queue (the transport's window bounds it); switch
	// egress queues use the switch's own configuration.
	if !a.isHost {
		e.capBytes = a.cfg.PortBuffer
		e.lossless = a.cfg.Lossless
	} else if !b.isHost {
		// A host NIC feeding a lossless switch participates in the
		// credit protocol: it must not serialize a packet the switch
		// cannot buffer.
		e.lossless = b.cfg.Lossless
	}
	a.egr = append(a.egr, e)
}

// ComputeRoutes builds shortest-path next-hop tables for every device via
// BFS from each host. Must be called after the topology is complete and
// before traffic is injected.
func (n *Network) ComputeRoutes() {
	for _, d := range n.devices {
		d.routes = make(map[NodeID]*egress, len(n.hosts))
	}
	for _, dst := range n.hosts {
		// BFS outward from dst; parentEgr[d] is the egress on d that
		// leads one hop closer to dst.
		visited := map[*Device]bool{dst: true}
		queue := []*Device{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Examine devices adjacent to cur: every device u with an
			// egress whose peer is cur.
			for _, u := range n.devices {
				if visited[u] {
					continue
				}
				for _, e := range u.egr {
					if e.peer == cur {
						u.routes[dst.id] = e
						visited[u] = true
						queue = append(queue, u)
						break
					}
				}
			}
		}
	}
}

// Inject queues a packet for transmission at the source host. It panics
// if the source has no route to the destination.
func (n *Network) Inject(pkt *Packet) {
	src := n.hosts[pkt.Src]
	e := src.routes[pkt.Dst]
	if e == nil {
		panic(fmt.Sprintf("netsim: no route %s -> host %d", src.name, pkt.Dst))
	}
	e.enqueue(pkt)
}

// arrive is invoked when a packet has fully arrived at device d.
func (d *Device) arrive(pkt *Packet) {
	if d.isHost {
		if pkt.Dst != d.id {
			panic(fmt.Sprintf("netsim: packet for host %d arrived at host %d", pkt.Dst, d.id))
		}
		if d.rxCost > 0 {
			d.cpuQ = append(d.cpuQ, pkt)
			d.cpuStep()
			return
		}
		d.deliver(pkt)
		return
	}
	d.forward(pkt)
}

// TxBacklogBytes returns the bytes currently queued on a host's NIC
// egress (the device transmit queue). Transports use it to emulate the
// bounded device queues of real hosts (txqueuelen): instead of dumping
// whole windows into the NIC FIFO — which would delay returning ACKs by
// the full queue depth and destroy ACK clocking — they pace injection.
func (d *Device) TxBacklogBytes() int {
	if !d.isHost || len(d.egr) == 0 {
		panic("netsim: TxBacklogBytes on a non-host device")
	}
	return d.egr[0].qBytes
}

// NotifyTxDrain registers a one-shot callback invoked the next time the
// host NIC finishes serializing a packet (i.e. when transmit queue space
// frees up). Callbacks fire in registration order.
func (d *Device) NotifyTxDrain(f func()) {
	if !d.isHost || len(d.egr) == 0 {
		panic("netsim: NotifyTxDrain on a non-host device")
	}
	d.egr[0].drainCBs = append(d.egr[0].drainCBs, f)
}

// reserve asks device d to set aside space for pkt before the upstream
// transmitter serializes it (lossless mode). It returns true if space was
// reserved; otherwise retry is registered to fire when space frees up.
func (d *Device) reserve(pkt *Packet, retry func()) bool {
	if d.isHost {
		return true // hosts drain arrivals immediately
	}
	e := d.routes[pkt.Dst]
	if e == nil {
		panic(fmt.Sprintf("netsim: switch %s has no route to host %d", d.name, pkt.Dst))
	}
	return e.reserveBytes(pkt.Size, retry)
}

// Drops returns the total tail-dropped packets across all egress queues.
func (n *Network) Drops() uint64 {
	var total uint64
	for _, d := range n.devices {
		for _, e := range d.egr {
			total += e.drops
		}
	}
	return total
}

// DeliveredPackets returns total packets delivered to host handlers.
func (n *Network) DeliveredPackets() uint64 {
	var total uint64
	for _, h := range n.hosts {
		total += h.RxPackets
	}
	return total
}

// EgressStats describes one egress queue's counters, for tests and the
// ablation experiments.
type EgressStats struct {
	Name      string
	Sent      uint64 // packets fully serialized
	SentBytes uint64
	Drops     uint64 // packets tail-dropped at enqueue
	MaxQueue  int    // high-water mark of queued+reserved bytes
}

// Stats returns per-egress counters for every queue in the network.
func (n *Network) Stats() []EgressStats {
	var out []EgressStats
	for _, d := range n.devices {
		for _, e := range d.egr {
			out = append(out, EgressStats{
				Name: e.name, Sent: e.sent, SentBytes: e.sentBytes,
				Drops: e.drops, MaxQueue: e.maxQueue,
			})
		}
	}
	return out
}
