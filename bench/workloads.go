package main

import (
	"runtime"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/sim"
)

// workloads returns the benchmark's seven workloads in report order. The
// cells are sized so that one op is a few hundred host milliseconds: a
// run of a few seconds then holds enough ops for a steady median.
func workloads() []workload {
	ge, fe, my := cluster.GigabitEthernet(), cluster.FastEthernet(), cluster.Myrinet()
	noLoss := func(l map[string]float64) (string, bool) {
		return "no drop and no retransmit", l["netsim.drops_per_op"] == 0 && l["transport.retransmits_per_op"] == 0
	}
	return []workload{
		lanWorkload("lan_tcp_paced",
			"saturated rotation exchange on the loss-free TCP fast path: per-segment and per-ACK cost in sim+netsim+transport is nearly all the work",
			[]lanCell{
				{ge, 16, 128 << 10, coll.Direct, 2},
				{fe, 16, 64 << 10, coll.Direct, 2},
			}, noLoss),
		lanWorkload("lan_tcp_incast",
			"the same layers under loss: tail drops, RTO timers and retransmit queues, so a fast-path gain that costs recovery shows here",
			[]lanCell{
				{ge, 16, 96 << 10, coll.PostAll, 2},
				{fe, 12, 96 << 10, coll.PostAll, 2},
			}, func(l map[string]float64) (string, bool) {
				return "at least one tail drop", l["netsim.drops_per_op"] >= 1
			}),
		lanWorkload("lan_gm_bulk",
			"lossless credit backpressure and no ACKs: sim+netsim work like lan_tcp_paced but no TCP code runs, so a TCP-only change must read no change here",
			[]lanCell{
				{my, 32, 256 << 10, coll.Direct, 1},
				{my, 32, 256 << 10, coll.PostAll, 1},
			}, noLoss),
		lanWorkload("lan_smallmsg",
			"one or two packets per message: mpi envelope and matching cost, sim.Proc hand-offs and n^2 connection set-up dominate, per-byte cost vanishes",
			[]lanCell{
				// Each cell twice: cell i runs on seed S+101·i, and host time
				// per event moves several percent with the interleaving a
				// seed picks, so two draws per cell steady the op.
				{ge, 32, 1 << 10, coll.Direct, 4}, {ge, 32, 1 << 10, coll.Direct, 4},
				{ge, 32, 64, coll.Bruck, 4}, {ge, 32, 64, coll.Bruck, 4},
				{my, 32, 256, coll.PostAll, 4}, {my, 32, 256, coll.PostAll, 4},
				{fe, 32, 4 << 10, coll.Direct, 4}, {fe, 32, 4 << 10, coll.Direct, 4},
			}, func(l map[string]float64) (string, bool) {
				return "under six delivered packets per message", l["netsim.pkts_delivered_per_op"] < 6*l["transport.msgs_per_op"]
			}),
		gridWorkload("grid_cold",
			"cold deployment planning on the packet engine, one worker: WAN routers, calib, signature, probe scheduling and plan compilation, ~90% probe simulation",
			sim.ModePacket, func() int { return 1 }),
		gridWorkload("grid_cold_fluid",
			"the same journey on the fluid engine with the probe pool: the only workload that can use a second core; a packet-path gain should shrink here",
			sim.ModeFluid, runtime.NumCPU),
		&serviceWorkload{name: "service_warm",
			why: "warm planner service under a seeded request mix from min(nproc,4) clients: model+grid+store only, so a simulator change must read no change"},
	}
}
