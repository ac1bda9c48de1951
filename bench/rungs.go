package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The layer rungs drive a workload's cells at each lower boundary in
// isolation — bare sim events, raw netsim packets, transport sends
// without mpi, mpi ping-pong without coll — so that a layer's host cost
// is measured with nothing above it. With one client nothing queues, so
// a faster layer saves at most its rung's share of op_s_p50: the rungs
// are the stacked account of an op.

// timed runs fn and returns its host seconds and heap allocations.
func timed(fn func()) (seconds float64, mallocs uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	fn()
	seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	return seconds, ms1.Mallocs - ms0.Mallocs
}

// simRung executes `events` self-rescheduling no-op events with
// `pending` far-future timers sitting in the heap — the event core's
// cost at the queue depth an n-rank exchange keeps (one RTO timer per
// connection).
func simRung(events uint64, pending int) (nsPerEvent, allocsPerEvent float64) {
	const maxEvents = 2_000_000 // bounds the rung at ~0.2 s
	if events > maxEvents {
		events = maxEvents
	}
	if events == 0 {
		return 0, 0
	}
	s := sim.New(1)
	for i := 0; i < pending; i++ {
		s.At(3600*sim.Second, func() {})
	}
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.After(sim.Microsecond, tick)
		}
	}
	s.After(0, tick)
	sec, mallocs := timed(func() { s.Run() })
	n := float64(s.Events())
	return sec * 1e9 / n, float64(mallocs) / n
}

// handoffRung measures one Proc park/resume: a spawned process sleeping
// in a loop.
func handoffRung() float64 {
	const sleeps = 50_000
	s := sim.New(1)
	s.Spawn("rung", func(p *sim.Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	sec, _ := timed(func() { s.Run() })
	return sec * 1e9 / sleeps
}

// buildShape wires n hosts into p's switch topology through netsim's
// exported API only, the same shape cluster.Build gives the cell: one
// flat edge switch, or leaves under a core when the profile has them.
func buildShape(p cluster.Profile, n int) (*netsim.Network, []*netsim.Device) {
	nw := netsim.New(sim.New(1))
	hosts := make([]*netsim.Device, n)
	for i := range hosts {
		hosts[i] = nw.AddHost(fmt.Sprintf("h%d", i))
	}
	edge := netsim.SwitchConfig{PortBuffer: p.PortBuffer, Lossless: p.Lossless}
	leaves := p.Leaves
	if p.NodesPerLeaf > 0 {
		if need := (n + p.NodesPerLeaf - 1) / p.NodesPerLeaf; need > leaves {
			leaves = need
		}
	}
	var sw []*netsim.Device
	if leaves > 1 {
		core := nw.AddSwitch("core", netsim.SwitchConfig{PortBuffer: p.CorePortBuffer, Lossless: p.Lossless})
		for l := 0; l < leaves; l++ {
			s := nw.AddSwitch(fmt.Sprintf("leaf%d", l), edge)
			nw.Connect(s, core, netsim.LinkConfig{Rate: p.UplinkRate, Latency: p.UplinkLatency})
			sw = append(sw, s)
		}
	} else {
		sw = []*netsim.Device{nw.AddSwitch("sw", edge)}
	}
	for i, h := range hosts {
		nw.Connect(h, sw[i%len(sw)], netsim.LinkConfig{Rate: p.NodeRate(i), Latency: p.LinkLatency})
	}
	nw.ComputeRoutes()
	return nw, hosts
}

// netsimRung injects pkts MTU-sized packets round-robin over host pairs
// on the cell's LAN shape, each source keeping one packet in flight (a
// raw packet has no retransmission, so the rung must not overflow a
// queue), and returns host cost per delivered packet.
func netsimRung(c lanCell, pkts uint64) (seconds float64, delivered, mallocs uint64) {
	nw, hosts := buildShape(c.profile, c.n)
	size, payload := c.profile.TCP.MSS+c.profile.TCP.HeaderSize, c.profile.TCP.MSS
	if c.profile.Kind == transport.GM {
		size, payload = c.profile.GM.MTU+c.profile.GM.HeaderSize, c.profile.GM.MTU
	}
	quota := int(pkts)/c.n + 1
	sent := make([]int, c.n)
	inject := func(src int) {
		dst := (src + 1 + sent[src]%(c.n-1)) % c.n
		sent[src]++
		nw.Inject(&netsim.Packet{Src: hosts[src].ID(), Dst: hosts[dst].ID(), Size: size, Payload: payload})
	}
	for _, h := range hosts {
		h.SetHandler(func(p *netsim.Packet) {
			delivered++
			if src := int(p.Src); sent[src] < quota {
				inject(src)
			}
		})
	}
	for i := range hosts {
		inject(i)
	}
	seconds, mallocs = timed(func() { nw.Sim().Run() })
	return seconds, delivered, mallocs
}

// rungRound is one step of an exchange as the transport sees it: every
// rank i sends size bytes to rank (i+shift) mod n.
type rungRound struct{ shift, size int }

// exchangeRounds lists what one All-to-All of the cell hands the
// transport: n−1 rotations of m bytes, or Bruck's log₂n rounds of
// aggregated blocks.
func exchangeRounds(c lanCell) []rungRound {
	var out []rungRound
	if c.alg == coll.Bruck {
		for bit := 1; bit < c.n; bit <<= 1 {
			blocks := 0
			for j := 1; j < c.n; j++ {
				if j&bit != 0 {
					blocks++
				}
			}
			out = append(out, rungRound{bit, blocks * c.m})
		}
		return out
	}
	for k := 1; k < c.n; k++ {
		out = append(out, rungRound{k, c.m})
	}
	return out
}

// transportRung posts one exchange's messages straight onto the cell's
// fabric with Conn.Send — no mpi envelopes, matching or rendezvous.
// PostAll cells post every round at once, as the algorithm does; the
// others start a round when the previous one has been delivered.
func transportRung(c lanCell, seed int64) (seconds float64, payload int64, mallocs uint64, err error) {
	cl := cluster.Build(c.profile, c.n, seed)
	rounds := exchangeRounds(c)
	post := func(r rungRound) {
		for i := 0; i < c.n; i++ {
			cl.Fabric.Conn(i, (i+r.shift)%c.n).Send(transport.Message{Size: r.size})
			payload += int64(r.size)
		}
	}
	delivered, next := 0, 0
	onMsg := func(transport.Message) {
		delivered++
		if c.alg != coll.PostAll && delivered%c.n == 0 && next < len(rounds) {
			r := rounds[next]
			next++
			cl.Sim.After(0, func() { post(r) })
		}
	}
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i != j {
				cl.Fabric.Conn(i, j).SetHandler(onMsg)
			}
		}
	}
	cl.Sim.After(0, func() {
		if c.alg == coll.PostAll {
			for _, r := range rounds {
				post(r)
			}
			return
		}
		next = 1
		post(rounds[0])
	})
	seconds, mallocs = timed(func() { cl.Sim.Run() })
	if want := len(rounds) * c.n; delivered != want {
		return 0, 0, 0, fmt.Errorf("transport rung %s n=%d: delivered %d of %d messages", c.profile.Name, c.n, delivered, want)
	}
	return seconds, payload, mallocs, nil
}

// mpiRung is a two-rank Send/Recv ping-pong of m bytes on the profile;
// it returns host nanoseconds per message.
func mpiRung(p cluster.Profile, m, rounds int, seed int64) float64 {
	cl := cluster.Build(p, 2, seed)
	w := mpi.NewWorld(cl, mpi.DefaultConfig())
	sec, _ := timed(func() {
		w.Run(func(r *mpi.Rank) {
			for i := 0; i < rounds; i++ {
				if r.ID() == 0 {
					r.Send(1, 1, m)
					r.Recv(1, 1)
				} else {
					r.Recv(0, 1)
					r.Send(0, 1, m)
				}
			}
		})
	})
	return sec * 1e9 / float64(2*rounds)
}

// lanRungs runs every rung for a LAN workload's cells; last is the traced
// op whose event and packet counts the rungs repeat.
func lanRungs(cells []lanCell, seed int64, last *opOut) (map[string]float64, error) {
	out := map[string]float64{}
	events := uint64(last.layer["sim.events_per_op"])
	pkts := uint64(last.layer["netsim.pkts_delivered_per_op"])

	pending := 0
	for _, c := range cells {
		pending = max(pending, c.n*c.n)
	}
	out["sim.rung_ns_per_event"], out["sim.rung_allocs_per_event"] = simRung(events, pending)
	out["sim.rung_handoff_ns"] = handoffRung()

	var netS, tpS float64
	var netPkts, netMallocs, tpMallocs uint64
	var tpPayload int64
	var tpOpS float64 // transport rung scaled to the op's exchange count
	eager, rndv := map[string]float64{}, map[string]float64{}
	for i, c := range cells {
		s, d, ma := netsimRung(c, pkts/uint64(len(cells)))
		netS, netPkts, netMallocs = netS+s, netPkts+d, netMallocs+ma

		s, pay, ma, err := transportRung(c, seed+101*int64(i))
		if err != nil {
			return out, err
		}
		tpS, tpPayload, tpMallocs = tpS+s, tpPayload+pay, tpMallocs+ma
		tpOpS += s * float64(1+c.reps)

		if _, done := eager[c.profile.Name]; !done {
			eager[c.profile.Name] = mpiRung(c.profile, 1<<10, 1000, seed)
			rndv[c.profile.Name] = mpiRung(c.profile, 128<<10, 100, seed)
		}
	}
	out["netsim.rung_ns_per_pkt"] = ratio(netS*1e9, float64(netPkts))
	out["netsim.rung_allocs_per_pkt"] = ratio(float64(netMallocs), float64(netPkts))
	kb := float64(tpPayload) / 1024
	out["transport.rung_ns_per_kb"] = ratio(tpS*1e9, kb)
	out["transport.rung_allocs_per_kb"] = ratio(float64(tpMallocs), kb)
	out["mpi.rung_pingpong_ns_eager"] = meanOf(eager)
	out["mpi.rung_pingpong_ns_rndv"] = meanOf(rndv)
	// The transport rung is a share of the op's time inside coll.Measure.
	if measureS := last.layer["coll.measure_s"]; measureS > 0 {
		out["mpi.above_transport_share"] = 1 - tpOpS/measureS
	}
	return out, nil
}

func meanOf(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return ratio(s, float64(len(m)))
}
