// Package mpi implements a rank-based message-passing runtime on the
// simulated cluster, standing in for the LAM-MPI library used by the
// paper. It provides blocking and nonblocking point-to-point operations
// with tag matching, the eager/rendezvous protocol switch of real MPI
// implementations, and a dissemination barrier. The switch point is the
// built cluster's EagerThreshold (cluster.Profile.EagerThreshold), so a
// protocol counterfactual is a profile value like any other.
//
// Rank code runs inside sim.Proc coroutines, so collective algorithms
// read like ordinary MPI programs while the simulator remains
// deterministic.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Protocol message kinds on the transport.
const (
	kEager   uint8 = 1 // envelope + payload in one transport message
	kReq     uint8 = 2 // rendezvous request (envelope only)
	kCTS     uint8 = 3 // rendezvous clear-to-send
	kData    uint8 = 4 // rendezvous payload
	kBarrier uint8 = 5 // barrier token
)

// AnyTag matches any tag in Recv/Irecv.
const AnyTag = -1

// Fixed costs of the LAM-MPI-like TCP stack the runtime models.
const (
	// envelopeSize is the wire size of a protocol envelope (it also
	// rides in front of eager payloads).
	envelopeSize = 64
	// overhead is the per-posting CPU cost charged to the calling rank
	// (the LogP "o"); it contributes to the measured α.
	overhead = 25 * sim.Microsecond
	// startJitter is the maximum uniform random skew added to each
	// rank's start, modeling the asynchronous start of the paper's
	// synchronization model.
	startJitter = 50 * sim.Microsecond
)

// Config is empty; the eager threshold is cluster.Profile's. The type
// and DefaultConfig remain only because the benchmark harness passes
// mpi.DefaultConfig() to NewWorld and calib.PingPong.
type Config struct{}

// DefaultConfig returns the empty Config; see Config.
func DefaultConfig() Config { return Config{} }

// World binds a runtime to a built cluster, one rank per host.
type World struct {
	Cluster *cluster.Cluster
	ranks   []*Rank
}

// NewWorld creates one rank per cluster host and wires the transport
// handlers. The Config argument is ignored; see Config.
func NewWorld(cl *cluster.Cluster, _ ...Config) *World {
	w := &World{Cluster: cl}
	n := len(cl.Hosts)
	w.ranks = make([]*Rank, n)
	for i := 0; i < n; i++ {
		w.ranks[i] = newRank(w, i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			src := j
			rk := w.ranks[i]
			cl.Fabric.Conn(i, j).SetHandler(func(m transport.Message) {
				rk.onMessage(src, m)
			})
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Run spawns body on every rank (with start jitter), runs the simulation
// to completion, and panics if any rank deadlocked. It returns the final
// simulated time.
func (w *World) Run(body func(r *Rank)) sim.Time {
	s := w.Cluster.Sim
	for _, r := range w.ranks {
		r := r
		jitter := sim.Time(s.Rand().Int63n(int64(startJitter) + 1))
		r.proc = s.SpawnAt(s.Now()+jitter, fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			r.p = p
			body(r)
		})
	}
	end := s.Run()
	s.MustQuiesce()
	return end
}
