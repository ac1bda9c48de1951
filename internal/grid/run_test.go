package grid

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// simulate runs one workload through Run and returns its completion
// time; hierarchical strategies execute spec when it is non-nil.
func simulate(t *testing.T, topo cluster.TopoNode, w coll.Workload, strat Strategy, spec *coll.TreeSpec, seed int64, warmup, reps int) float64 {
	t.Helper()
	sr := SimRun{Seed: seed, Warmup: warmup, Reps: reps}
	if _, hier := DescribeStrategy(strat); hier {
		sr.Spec = spec
	}
	res, err := Run(topo, w, strat, sr)
	if err != nil {
		t.Fatalf("%v %v: %v", w.Kind, strat, err)
	}
	return res.T
}

// TestRunFieldEquivalences pins, as properties of the one runner, the
// equivalences the deleted Simulate* variants were pinned against each
// other pair-wise: every row runs the uniform All-to-All on the
// two-level test grid twice — once under the zero-field reference, once
// with one Workload or SimRun field varied — and the completion times
// must be bit-equal.
func TestRunFieldEquivalences(t *testing.T) {
	topo := testTopo()
	n := topo.TotalNodes()
	// 24 KiB: the transport message (payload + 64-byte mpi envelope)
	// stays under the 32 KiB fluid threshold, which the last row needs.
	const m, seed = 24 << 10, 3
	uniform := coll.Uniform(coll.KindAlltoall, m)
	base := SimRun{Seed: seed, Warmup: 1, Reps: 1}
	with := func(edit func(*SimRun)) SimRun {
		sr := base
		edit(&sr)
		return sr
	}
	g, err := cluster.BuildGridTree(topo, seed)
	if err != nil {
		t.Fatal(err)
	}
	defaultSpec := coll.GridSpec(g)

	// plainT executes the compiled default plan on a bare world with no
	// measurement barrier — the plain executor the failover runtime's
	// no-fault path must reproduce to the nanosecond.
	plainT := func() float64 {
		g, err := cluster.BuildGridTree(topo, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := coll.Compile(coll.GridSpec(g), uniform, coll.HierGather)
		if err != nil {
			t.Fatal(err)
		}
		var end sim.Time
		mpi.NewWorld(g.Env).Run(func(r *mpi.Rank) {
			coll.RunPlan(r, plan, nil)
			if r.Now() > end {
				end = r.Now()
			}
		})
		return end.Seconds()
	}

	hier := []Strategy{HierGather, HierDirect}
	for _, tc := range []struct {
		name   string
		strats []Strategy
		w      coll.Workload
		sr     SimRun
		traced bool // give the varied run its own collector
		// want overrides the reference (uniform under base).
		want func() float64
		// check inspects the varied run beyond its time.
		check func(t *testing.T, strat Strategy, res RunResult, c *obs.Collector)
	}{
		{
			// The grid-level twin of coll's TestCompilePins uniform-matrix
			// rows: a uniform matrix is the uniform exchange, through the
			// flat kernel and both plans.
			name: "irregular-uniform-matrix", strats: Strategies,
			w: coll.Irregular(coll.UniformSizeMatrix(n, m)), sr: base,
		},
		{
			// Tracing reads the simulated clock but never perturbs it; the
			// traced run labels every phase and publishes per-port counters.
			name: "phases-traced", strats: hier, w: uniform, traced: true,
			sr: with(func(sr *SimRun) { sr.Phases = true }),
			check: func(t *testing.T, strat Strategy, res RunResult, c *obs.Collector) {
				labels := map[string]bool{}
				for _, ph := range res.Phases {
					labels[ph.Label] = true
					if ph.Dur() < 0 || ph.Ranks <= 0 {
						t.Errorf("malformed phase span %+v", ph)
					}
				}
				want := []string{"level-0"}
				if strat == HierGather {
					want = []string{"intra", "leaf-gather", "tier-1-exchange", "scatter-depth-1"}
				}
				for _, l := range want {
					if !labels[l] {
						t.Errorf("missing phase label %q in %v", l, res.Phases)
					}
				}
				var sawPort bool
				for _, ev := range c.Events() {
					sawPort = sawPort || ev.Name == "netsim.port"
				}
				if !sawPort {
					t.Error("no netsim.port events published")
				}
			},
		},
		{
			// GR6's fault-free baseline: an empty schedule under the
			// failover runtime posts the plain executor's operations.
			name: "faults-empty", strats: hier[:1], w: uniform, traced: true,
			sr:   SimRun{Seed: seed, Faults: &netsim.FaultSchedule{}},
			want: plainT,
			check: func(t *testing.T, _ Strategy, res RunResult, _ *obs.Collector) {
				if f := res.Failover; f.Epochs != 1 || len(f.Dead) != 0 || f.Incomplete || f.DeliveredBlocks != n*(n-1) {
					t.Fatalf("no-fault failover run reports %+v", f)
				}
			},
		},
		{
			name: "spec-explicit-default", strats: hier, w: uniform,
			sr: with(func(sr *SimRun) { sr.Spec = &defaultSpec }),
		},
		{
			// Transfers at or below the fluid threshold take the packet path
			// under fluid mode (flat only: the plans' aggregated coordinator
			// messages exceed it).
			name: "fluid-below-threshold", strats: []Strategy{FlatDirect}, w: uniform,
			sr: with(func(sr *SimRun) { sr.Sim = fluidCfg() }),
		},
	} {
		for _, strat := range tc.strats {
			tc, strat := tc, strat
			t.Run(tc.name+"/"+strat.String(), func(t *testing.T) {
				var want float64
				if tc.want != nil {
					want = tc.want()
				} else {
					want = simulate(t, topo, uniform, strat, nil, seed, base.Warmup, base.Reps)
				}
				sr := tc.sr
				if tc.traced {
					sr.Trace = obs.New()
				}
				got, err := Run(topo, tc.w, strat, sr)
				if err != nil {
					t.Fatal(err)
				}
				if got.T != want || got.T <= 0 {
					t.Fatalf("T = %v, reference %v", got.T, want)
				}
				if tc.traced {
					// A traced Run is a validation, never a probe: a
					// warm-store planner run must be able to report zero
					// probes while re-simulating its plan.
					if v, p := counterValue(sr.Trace, CtrValidations), counterValue(sr.Trace, CtrProbes); v != 1 || p != 0 {
						t.Errorf("%s = %d, %s = %d, want 1 and 0", CtrValidations, v, CtrProbes, p)
					}
					if counterValue(sr.Trace, CtrSimEvents) == 0 {
						t.Errorf("%s not fed", CtrSimEvents)
					}
				}
				if tc.check != nil {
					tc.check(t, strat, got, sr.Trace)
				}
			})
		}
	}
}

// TestRunHonoursSimAndCollector pins the drift fix: an All-to-Allv run
// and a phase-traced run go through the same engine selection and
// counter funnel as every other run. SimulateSpecVTraced had no engine
// parameter and SimulateV fed no collector.
func TestRunHonoursSimAndCollector(t *testing.T) {
	topo := testTopo()
	c := obs.New()
	sz := coll.UniformSizeMatrix(topo.TotalNodes(), 96<<10)
	sz.Set(0, 1, 200<<10)
	res, err := Run(topo, coll.Irregular(sz), HierGather,
		SimRun{Trace: c, Sim: SimConfig{Mode: sim.ModeFluid}, Seed: 5, Reps: 1, Phases: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.T <= 0 || len(res.Phases) == 0 {
		t.Fatalf("traced irregular run returned %+v", res)
	}
	if got := counterValue(c, netsim.CtrFluidFlows); got == 0 {
		t.Errorf("%s = 0: SimRun.Sim ignored on the phase-traced All-to-Allv path", netsim.CtrFluidFlows)
	}
	if got := counterValue(c, CtrValidations); got != 1 {
		t.Errorf("%s = %d, want exactly 1", CtrValidations, got)
	}
}

// TestRunRejectsByName: malformed workloads and SimRun field
// combinations no execution mode supports come back as errors naming
// the offending field — including through the SimulateKind shim, which
// used to panic inside the plan compiler on KindAlltoallv.
func TestRunRejectsByName(t *testing.T) {
	topo := testTopo()
	n := topo.TotalNodes()
	ok := coll.Uniform(coll.KindAlltoall, 1<<10)
	spec := coll.TreeSpec{}
	// The topology is two clusters of three; each malformed plan spec
	// breaks one rule of coll.TreeSpec.
	planSpec := func(a, b coll.TreeSpec) *coll.TreeSpec {
		return &coll.TreeSpec{Children: []coll.TreeSpec{a, b}}
	}
	lo, hi := coll.TreeSpec{Ranks: []int{0, 1, 2}}, coll.TreeSpec{Ranks: []int{3, 4, 5}}
	for _, tc := range []struct {
		name  string
		w     coll.Workload
		strat Strategy
		sr    SimRun
		want  string
	}{
		{"alltoallv-without-sizes", coll.Uniform(coll.KindAlltoallv, 1<<10), HierGather, SimRun{}, "no Sizes"},
		{"alltoallv-without-sizes-flat", coll.Workload{Kind: coll.KindAlltoallv}, FlatDirect, SimRun{}, "no Sizes"},
		{"uniform-with-sizes", coll.Workload{Kind: coll.KindAllreduce, M: 8, Sizes: coll.NewSizeMatrix(n)}, HierGather, SimRun{}, "carries a Sizes"},
		{"negative-m", coll.Uniform(coll.KindBroadcast, -1), FlatDirect, SimRun{}, "negative M"},
		{"matrix-rank-mismatch", coll.Irregular(coll.NewSizeMatrix(n + 1)), HierDirect, SimRun{}, "ranks"},
		{"unknown-kind", coll.Uniform(coll.Kind(99), 8), FlatDirect, SimRun{}, "unknown collective kind"},
		{"unknown-strategy", ok, Strategy(99), SimRun{}, "unknown strategy"},
		{"negative-reps", ok, FlatDirect, SimRun{Reps: -1}, "Reps"},
		{"spec-on-flat", ok, FlatDirect, SimRun{Spec: &spec}, "SimRun.Spec"},
		{"phases-on-flat", ok, FlatDirect, SimRun{Phases: true}, "SimRun.Phases"},
		{"faults-on-flat", ok, FlatDirect, SimRun{Faults: &netsim.FaultSchedule{}}, "SimRun.Faults"},
		{"timeout-without-faults", ok, HierGather, SimRun{Timeout: sim.Millisecond}, "SimRun.Timeout"},
		{"faults-alltoallv", coll.Irregular(coll.NewSizeMatrix(n)), HierGather, SimRun{Faults: &netsim.FaultSchedule{}}, "alltoallv"},
		{"faults-zero-m", coll.Uniform(coll.KindAlltoall, 0), HierGather, SimRun{Faults: &netsim.FaultSchedule{}}, "positive Workload.M"},
		{"faults-with-phases", ok, HierGather, SimRun{Faults: &netsim.FaultSchedule{}, Phases: true}, "SimRun.Phases"},
		{"faults-with-reps", ok, HierGather, SimRun{Faults: &netsim.FaultSchedule{}, Reps: 2}, "Reps"},
		{"spec-rank-twice", ok, HierGather, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: []int{0, 4, 5}})}, "rank 0 appears twice"},
		{"spec-rank-out-of-range", ok, HierGather, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: []int{3, 4, 6}})}, "rank 6 outside dense range"},
		{"spec-ranks-and-children", ok, HierDirect, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: []int{3, 4, 5}, Children: []coll.TreeSpec{hi}})}, "both ranks and children"},
		{"spec-empty-node", ok, HierDirect, SimRun{Spec: planSpec(lo, coll.TreeSpec{})}, "neither ranks nor children"},
		{"spec-foreign-coordinator", ok, HierGather, SimRun{Spec: planSpec(coll.TreeSpec{Ranks: lo.Ranks, Coords: []int{5}}, hi)}, "coordinator 5 is not a rank of its subtree"},
		{"spec-coordinator-twice", ok, HierGather, SimRun{Spec: planSpec(coll.TreeSpec{Ranks: lo.Ranks, Coords: []int{1, 1}}, hi)}, "coordinator 1 named twice"},
		{"spec-foreign-standby", coll.Uniform(coll.KindAllreduce, 8), HierGather, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: hi.Ranks, Standbys: []int{0}})}, "standby 0 is not a rank of its subtree"},
		{"spec-too-small", ok, HierGather, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: []int{3, 4}})}, "plan spec covers 5 ranks, topology has 6"},
		{"spec-too-small-alltoallv", coll.Irregular(coll.NewSizeMatrix(n)), HierGather, SimRun{Spec: planSpec(lo, coll.TreeSpec{Ranks: []int{3, 4}})}, "ranks"},
		{"spec-malformed-under-faults", ok, HierGather, SimRun{Spec: planSpec(lo, lo), Faults: &netsim.FaultSchedule{}}, "appears twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(topo, tc.w, tc.strat, tc.sr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
	for _, strat := range Strategies {
		if _, err := SimulateKind(topo, coll.KindAlltoallv, strat, 1<<10, 1, 0, 1); err == nil || !strings.Contains(err.Error(), "no Sizes") {
			t.Fatalf("SimulateKind(alltoallv, %v): error %v, want a named rejection", strat, err)
		}
	}
	if tt, err := SimulateKind(topo, coll.KindAllgather, HierGather, 1<<10, 1, 0, 1); err != nil || tt <= 0 {
		t.Fatalf("SimulateKind(allgather) = %v, %v", tt, err)
	}
}
