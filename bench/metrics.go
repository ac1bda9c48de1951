package main

// metric declares one number the benchmark reports. The declarations in
// this file are the benchmark's contract: BENCHMARK.json lists the same
// names, units, directions and bounds (bench_test.go pins the two
// against each other), every workload emits every declared metric, and
// -compare judges two result sets by the bound and direction given here.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics have no bound.
	Bound float64
	// Floor widens the bound for values near zero: a change smaller than
	// Floor (in the metric's unit) is never a regression.
	Floor float64
	// Exact marks counts that repeat bit-for-bit per seed; -compare
	// reports them as same/changed, with no better or worse.
	Exact bool
}

// endToEnd are the numbers a user of the system waits on or pays for.
// Every workload reports all four, from the untraced pass. Each bound is
// at least three times the widest spread measured across ten seeds on the
// reference box (README.md records the spreads): alloc_bytes_per_op
// repeats to 0.1% on one seed, but lan_tcp_incast's loss recovery moves
// it by 4% from seed to seed.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.020},
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.12},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.12},
}

// perLayer are the single-layer numbers, all from the traced pass. A
// metric that does not apply to a workload (a rung on service_warm, a
// store counter on lan_*) reads 0 there.
var perLayer = []metric{
	// sim: the event core.
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.simulated_s_per_op", Unit: "s", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.rung_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.rung_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.rung_handoff_ns", Unit: "ns", Better: "lower"},
	// netsim: packets, queues, the fluid engine.
	{Name: "netsim.pkts_delivered_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drops_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drop_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "netsim.rung_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netsim.rung_allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "netsim.pkts_forwarded_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.wan_mb_per_op", Unit: "MB", Better: "lower", Exact: true},
	{Name: "netsim.fluid_flows_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "netsim.fluid_byte_share", Unit: "ratio", Better: "higher", Exact: true},
	// transport: TCP and GM.
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.payload_mb_per_op", Unit: "MB", Better: "lower", Exact: true},
	{Name: "transport.retransmits_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.fast_retransmits_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.timeouts_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.retransmit_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "transport.rung_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "transport.rung_allocs_per_kb", Unit: "count", Better: "lower"},
	// mpi: envelopes, matching, rendezvous.
	{Name: "mpi.rung_pingpong_ns_eager", Unit: "ns", Better: "lower"},
	{Name: "mpi.rung_pingpong_ns_rndv", Unit: "ns", Better: "lower"},
	{Name: "mpi.above_transport_share", Unit: "ratio", Better: "lower"},
	// coll: measurement loop and plan compilation.
	{Name: "coll.measure_s", Unit: "s", Better: "lower"},
	{Name: "coll.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "coll.plan_msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "coll.plan_phases", Unit: "count", Better: "lower", Exact: true},
	// cluster, calib, signature.
	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "calib.pingpong_s", Unit: "s", Better: "lower"},
	{Name: "signature.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "signature.fit_mape_pct", Unit: "%", Better: "lower", Exact: true},
	// model: prediction cost and prediction error against simulation.
	{Name: "model.predict_us", Unit: "us", Better: "lower"},
	{Name: "model.predictv_us", Unit: "us", Better: "lower"},
	{Name: "model.predictkind_us", Unit: "us", Better: "lower"},
	{Name: "model.abs_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "model.err_pct_flat", Unit: "%", Better: "lower", Exact: true},
	{Name: "model.err_pct_hier_gather", Unit: "%", Better: "lower", Exact: true},
	{Name: "model.err_pct_hier_direct", Unit: "%", Better: "lower", Exact: true},
	// grid: planner journey, probe pool, store, service classes.
	{Name: "grid.characterize_s", Unit: "s", Better: "lower"},
	{Name: "grid.select_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.kind_fit_s", Unit: "s", Better: "lower"},
	{Name: "grid.validate_s", Unit: "s", Better: "lower"},
	{Name: "grid.probes_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "grid.validations_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "grid.probe_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "grid.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "grid.warm_start_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "grid.store_read_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.store_write_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.store_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "grid.plannerfor_warm_us", Unit: "us", Better: "lower"},
	{Name: "grid.store_hits_per_start", Unit: "count", Better: "higher", Exact: true},
	{Name: "grid.store_misses_per_start", Unit: "count", Better: "lower", Exact: true},
	{Name: "grid.service_op_us_p99", Unit: "us", Better: "lower"},
	{Name: "grid.service_predict_us", Unit: "us", Better: "lower"},
	{Name: "grid.service_predictv_us", Unit: "us", Better: "lower"},
	{Name: "grid.service_predictkind_us", Unit: "us", Better: "lower"},
	{Name: "grid.service_best_us", Unit: "us", Better: "lower"},
	{Name: "grid.service_select_us", Unit: "us", Better: "lower"},
	{Name: "grid.service_save_us", Unit: "us", Better: "lower"},
	// obs: what tracing itself costs.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.events_per_op", Unit: "count", Better: "lower", Exact: true},
	// host: the Go runtime under the untraced loop.
	{Name: "host.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "host.peak_heap_mb", Unit: "MB", Better: "lower"},
}

// sample is one reported value with the number of measurements behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet maps metric name to its reported value.
type metricSet map[string]sample

// fill returns a set holding every declared metric: the measured value
// where vals has one, zero otherwise, each with its declared unit. A
// measured value with no count in n is a single measurement.
func fill(decls []metric, vals map[string]float64, n map[string]int) metricSet {
	out := make(metricSet, len(decls))
	for _, d := range decls {
		s := sample{Value: vals[d.Name], Unit: d.Unit, N: n[d.Name]}
		if _, measured := vals[d.Name]; measured && s.N == 0 {
			s.N = 1
		}
		out[d.Name] = s
	}
	return out
}
