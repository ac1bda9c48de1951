// Package transport implements reliable, ordered, message-oriented
// transports on top of the netsim packet network. Two stacks are
// provided, mirroring the two protocol families of the paper:
//
//   - TCP: a Reno/NewReno-style transport (slow start, AIMD congestion
//     avoidance, fast retransmit, retransmission timeouts with
//     exponential backoff). Packet loss at saturated switch buffers is
//     recovered here, and the recovery cost — above all RTO stalls — is
//     the microscopic origin of the paper's contention ratio γ on the
//     Ethernet networks.
//   - GM: a Myrinet/GM-like transport that relies on the lossless,
//     credit-backpressured network for reliability and simply streams
//     segments; it has no acknowledgments and negligible per-message
//     software cost, matching the paper's observation that the Myrinet
//     start-up cost δ is "almost inexistent".
//
// Message payloads are not materialized: only sizes travel through the
// simulator. Receivers reconstruct message boundaries by counting
// delivered stream bytes.
package transport

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Message is the unit handed across a Conn. Kind, Tag and MsgSeq belong
// to the layer above (the MPI runtime); the transport delivers them
// opaquely, in order, exactly once.
type Message struct {
	Kind   uint8
	Tag    int32
	MsgSeq int64
	Aux    int64 // upper-layer metadata (e.g. rendezvous payload size)
	Size   int   // payload bytes
}

// Handler receives messages delivered on a connection.
type Handler func(msg Message)

// Conn is a reliable, ordered duplex message channel between two hosts.
type Conn interface {
	// Send enqueues a message for the peer. Delivery order equals send
	// order. The call never blocks (simulated buffering is unbounded;
	// flow control happens at the byte level inside the transport).
	Send(msg Message)
	// SetHandler installs the delivery callback on this side.
	SetHandler(h Handler)
	// Stats returns transport counters for this side's sender half.
	Stats() ConnStats
	// Abort kills this side of the connection: pending transmissions are
	// dropped, armed timers are disarmed, and subsequent sends and
	// arriving packets are ignored. Used when the peer (or this host) is
	// declared dead — an aborted connection generates no further events,
	// so the simulation can drain instead of retransmitting into a
	// blackhole forever.
	Abort()
}

// ConnStats counts sender-half protocol activity.
type ConnStats struct {
	MsgsSent        int64
	BytesSent       int64 // payload stream bytes (first transmissions)
	Retransmits     int64 // segments retransmitted (any reason)
	FastRetransmits int64
	Timeouts        int64 // RTO firings
}

// Kind selects a transport stack.
type Kind int

const (
	// TCP is the Reno/NewReno-like stack (use on lossy networks).
	TCP Kind = iota
	// GM is the Myrinet-like stack (use on lossless networks).
	GM
)

// String names the transport kind.
func (k Kind) String() string {
	switch k {
	case TCP:
		return "tcp"
	case GM:
		return "gm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// packet kinds on the wire
const (
	pkData uint8 = 1
	pkAck  uint8 = 2
	pkGM   uint8 = 3
)

// flowID builds the directional flow key src→dst.
func flowID(src, dst netsim.NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// Endpoint is the per-host transport stack: it owns the host's demux
// table and hands arriving packets to the right connection half.
type Endpoint struct {
	net  *netsim.Network
	host *netsim.Device
	id   netsim.NodeID
	data map[uint64]dataSink // rx flows (peer→me)
	acks map[uint64]ackSink  // tx flows (me→peer), ack packets
}

type dataSink interface{ onData(pkt *netsim.Packet) }
type ackSink interface{ onAck(pkt *netsim.Packet) }

// newEndpoint attaches a transport stack to a host device.
func newEndpoint(n *netsim.Network, host *netsim.Device) *Endpoint {
	ep := &Endpoint{
		net: n, host: host, id: host.ID(),
		data: make(map[uint64]dataSink),
		acks: make(map[uint64]ackSink),
	}
	host.SetHandler(ep.onPacket)
	return ep
}

func (ep *Endpoint) onPacket(pkt *netsim.Packet) {
	switch pkt.Kind {
	case pkData, pkGM:
		if s := ep.data[pkt.Flow]; s != nil {
			s.onData(pkt)
		}
	case pkAck:
		if s := ep.acks[pkt.Flow]; s != nil {
			s.onAck(pkt)
		}
	}
}

// Fabric wires a full mesh of connections between a set of hosts using
// one transport kind. It is the object the MPI runtime builds on.
type Fabric struct {
	eps   []*Endpoint
	conns [][]Conn // conns[i][j]: connection at host i with peer j
}

// TCPConfig parameterizes the TCP-like stack. Zero fields take defaults
// from DefaultTCPConfig.
type TCPConfig struct {
	MSS        int      // max segment payload bytes
	HeaderSize int      // per-segment wire overhead (eth+ip+tcp+framing)
	AckSize    int      // wire size of a pure ACK
	RcvWindow  int      // receiver window (bytes)
	InitCwnd   int      // initial congestion window (bytes)
	RTOMin     sim.Time // minimum retransmission timeout
	RTOMax     sim.Time // RTO backoff cap
	// TxQueueLimit bounds the data bytes a sender keeps in its host's
	// NIC transmit queue, emulating the bounded device queues
	// (txqueuelen ≈ 100 packets) of real hosts. Without it, whole
	// windows pile into the NIC FIFO and returning ACKs are delayed by
	// the full queue depth, destroying ACK clocking.
	TxQueueLimit int
	// DelAckTimeout is the delayed-ACK timer: in-order traffic is
	// acknowledged every second packet or after this delay.
	DelAckTimeout sim.Time
	// AckJitter is the maximum uniform random delay applied to ACK
	// generation, modeling interrupt coalescing and host noise. It
	// desynchronizes concurrent flows' AIMD cycles as real systems do.
	AckJitter sim.Time
	// MaxRetries caps consecutive retransmission timeouts without ACK
	// progress before the connection gives up and aborts itself
	// (Linux tcp_retries2 semantics). At the default RTO ladder the
	// cap needs ~a minute of total peer silence, which a
	// congested-but-alive peer never produces; it exists so a
	// connection to a permanently lost (blackholed) host stops
	// rearming its RTO timer instead of keeping the simulator's event
	// queue alive forever. Negative disables the cap.
	MaxRetries int
}

// DefaultTCPConfig matches a Linux-2.4-era stack on commodity clusters
// (the software environment of the paper: LAM-MPI on kernel 2.4/2.6).
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		MSS:           1460,
		HeaderSize:    78, // 14 eth + 20 ip + 20 tcp + preamble/IFG share
		AckSize:       84,
		RcvWindow:     64 << 10,
		InitCwnd:      2 * 1460,
		RTOMin:        200 * sim.Millisecond,
		RTOMax:        5 * sim.Second,
		TxQueueLimit:  150 << 10, // ~100 packets of 1538 wire bytes
		DelAckTimeout: 40 * sim.Millisecond,
		AckJitter:     30 * sim.Microsecond,
		MaxRetries:    15, // tcp_retries2
	}
}

// withDefaults fills zero fields from DefaultTCPConfig.
func (c TCPConfig) withDefaults() TCPConfig {
	d := DefaultTCPConfig()
	if c.MSS == 0 {
		c.MSS = d.MSS
	}
	if c.HeaderSize == 0 {
		c.HeaderSize = d.HeaderSize
	}
	if c.AckSize == 0 {
		c.AckSize = d.AckSize
	}
	if c.RcvWindow == 0 {
		c.RcvWindow = d.RcvWindow
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = d.InitCwnd
	}
	if c.RTOMin == 0 {
		c.RTOMin = d.RTOMin
	}
	if c.RTOMax == 0 {
		c.RTOMax = d.RTOMax
	}
	if c.TxQueueLimit == 0 {
		c.TxQueueLimit = d.TxQueueLimit
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = d.DelAckTimeout
	}
	if c.AckJitter == 0 {
		c.AckJitter = d.AckJitter
	}
	return c
}

// GMConfig parameterizes the GM-like stack.
type GMConfig struct {
	MTU        int // max packet payload
	HeaderSize int // per-packet wire overhead
}

// DefaultGMConfig mirrors Myrinet 2000 with the gm driver.
func DefaultGMConfig() GMConfig {
	return GMConfig{MTU: 4096, HeaderSize: 16}
}

func (c GMConfig) withDefaults() GMConfig {
	d := DefaultGMConfig()
	if c.MTU == 0 {
		c.MTU = d.MTU
	}
	if c.HeaderSize == 0 {
		c.HeaderSize = d.HeaderSize
	}
	return c
}

// FabricConfig bundles the per-kind transport settings.
type FabricConfig struct {
	Kind Kind
	TCP  TCPConfig
	GM   GMConfig
}

// NewFabric builds endpoints for the given hosts and a full mesh of
// connections among them.
func NewFabric(n *netsim.Network, hosts []*netsim.Device, cfg FabricConfig) *Fabric {
	f := &Fabric{}
	f.eps = make([]*Endpoint, len(hosts))
	for i, h := range hosts {
		f.eps[i] = newEndpoint(n, h)
	}
	tcpCfg := cfg.TCP.withDefaults()
	gmCfg := cfg.GM.withDefaults()
	f.conns = make([][]Conn, len(hosts))
	for i := range hosts {
		f.conns[i] = make([]Conn, len(hosts))
	}
	switch cfg.Kind {
	case TCP:
		halves := make([][]*tcpConn, len(hosts))
		for i := range hosts {
			halves[i] = make([]*tcpConn, len(hosts))
		}
		for i := range hosts {
			for j := range hosts {
				if i != j {
					halves[i][j] = newTCPHalf(n, f.eps[i], f.eps[j], tcpCfg)
				}
			}
		}
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				linkMirror(halves[i][j], halves[j][i])
			}
		}
		for i := range hosts {
			for j := range hosts {
				if i != j {
					f.conns[i][j] = halves[i][j]
				}
			}
		}
	case GM:
		halves := make([][]*gmConn, len(hosts))
		for i := range hosts {
			halves[i] = make([]*gmConn, len(hosts))
		}
		for i := range hosts {
			for j := range hosts {
				if i != j {
					halves[i][j] = newGMHalf(n, f.eps[i], f.eps[j], gmCfg)
				}
			}
		}
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				linkGMMirror(halves[i][j], halves[j][i])
			}
		}
		for i := range hosts {
			for j := range hosts {
				if i != j {
					f.conns[i][j] = halves[i][j]
				}
			}
		}
	default:
		panic("transport: unknown kind")
	}
	return f
}

// Conn returns host i's connection with peer j.
func (f *Fabric) Conn(i, j int) Conn { return f.conns[i][j] }

// Quench aborts every connection touching host i, in both directions:
// host i's halves and every peer's half facing i. Call it when host i
// is declared dead, so surviving senders stop retransmitting into the
// blackhole and the event loop can drain.
func (f *Fabric) Quench(i int) {
	for j := range f.conns {
		if f.conns[i][j] != nil {
			f.conns[i][j].Abort()
		}
		if f.conns[j][i] != nil {
			f.conns[j][i].Abort()
		}
	}
}

// NumHosts returns the mesh size.
func (f *Fabric) NumHosts() int { return len(f.eps) }

// TotalStats sums sender-half counters across all connections.
func (f *Fabric) TotalStats() ConnStats {
	var t ConnStats
	for i := range f.conns {
		for j := range f.conns[i] {
			if f.conns[i][j] == nil {
				continue
			}
			s := f.conns[i][j].Stats()
			t.MsgsSent += s.MsgsSent
			t.BytesSent += s.BytesSent
			t.Retransmits += s.Retransmits
			t.FastRetransmits += s.FastRetransmits
			t.Timeouts += s.Timeouts
		}
	}
	return t
}
