package grid

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SimRun holds the knobs of one ground-truth simulation (Run). The zero
// value is one untraced packet-level repetition of the default
// lowest-rank-coordinator plan at seed 0.
type SimRun struct {
	// Trace receives the run's counters (planner.validations, sim.events,
	// transport recovery, netsim.*) and the spans the traced modes emit;
	// nil runs untraced.
	Trace *obs.Collector
	// Sim selects the engine (packet or fluid).
	Sim SimConfig
	// Seed seeds the topology build.
	Seed int64
	// Warmup and Reps are the unmeasured and measured repetitions
	// (coll.Measure); the reported time is the mean over Reps.
	Warmup, Reps int
	// Spec, when set, is the plan spec a hierarchical strategy compiles
	// (e.g. Planner.PlanSpec's selected coordinators and standbys); nil
	// takes the topology's default spec (coll.GridSpec).
	Spec *coll.TreeSpec
	// Phases records the plan's per-phase spans into RunResult.Phases
	// and, with a Trace, emits them: All-to-All(v) as a simulate.phases
	// span plus the network's per-port counters, every other kind as a
	// simulate.kind span.
	Phases bool
	// Faults, when set, arms the schedule on the built network and
	// executes the plan once under the epoch-failover runtime
	// (coll.FailoverRun) inside a failover.run span; an empty schedule is
	// the fault-free baseline of that runtime.
	Faults *netsim.FaultSchedule
	// Timeout is the failover runtime's rendezvous timeout; zero takes
	// its default. Only meaningful with Faults.
	Timeout sim.Time
}

// RunResult is what one Run measured.
type RunResult struct {
	// T is the completion time in seconds: the mean makespan over Reps,
	// or under Faults the finish time of the latest surviving rank.
	T float64
	// Phases is the per-phase breakdown of the final repetition
	// (SimRun.Phases only).
	Phases []coll.PhaseSpan
	// Failover is the epoch-failover outcome (SimRun.Faults only).
	Failover coll.FailoverResult
}

// validate rejects field combinations no execution mode supports,
// naming the fields, before anything is built.
func (sr SimRun) validate(w coll.Workload, strat Strategy) error {
	_, hier := DescribeStrategy(strat)
	switch {
	case strat != FlatDirect && !hier:
		return fmt.Errorf("grid: unknown strategy %v", strat)
	case sr.Warmup < 0 || sr.Reps < 0:
		return fmt.Errorf("grid: SimRun.Warmup %d / Reps %d is negative", sr.Warmup, sr.Reps)
	case !hier && sr.Spec != nil:
		return fmt.Errorf("grid: SimRun.Spec needs a hierarchical strategy, got %v", strat)
	case !hier && sr.Phases:
		return fmt.Errorf("grid: SimRun.Phases needs a hierarchical strategy, got %v", strat)
	case !hier && sr.Faults != nil:
		return fmt.Errorf("grid: SimRun.Faults needs a hierarchical strategy, got %v", strat)
	case sr.Faults == nil && sr.Timeout != 0:
		return fmt.Errorf("grid: SimRun.Timeout is set without SimRun.Faults")
	case sr.Faults == nil:
		return nil
	case w.Kind == coll.KindAlltoallv:
		return fmt.Errorf("grid: SimRun.Faults does not support %v workloads", w.Kind)
	case w.M <= 0:
		return fmt.Errorf("grid: SimRun.Faults needs a positive Workload.M, got %d", w.M)
	case sr.Phases:
		return fmt.Errorf("grid: SimRun.Faults and SimRun.Phases cannot be combined")
	case sr.Warmup != 0 || sr.Reps > 1:
		return fmt.Errorf("grid: SimRun.Faults executes once; Warmup %d / Reps %d must be unset", sr.Warmup, sr.Reps)
	}
	return nil
}

// Run builds the topology and measures one strategy's execution of the
// workload in simulation — the ground truth every prediction is checked
// against, and the only place that knows the sequence build → arm the
// engine → validate ranks → compile → attach the collector → execute →
// count → emit. FlatDirect runs the workload's flat kernel
// (coll.RunKindFlat); the hierarchical strategies compile its plan over
// SimRun.Spec and execute it with coll.RunPlan — plain, phase-traced
// (SimRun.Phases) or under epoch failover (SimRun.Faults). A traced run
// counts itself under planner.validations.
//
// An error is returned for a malformed topology, workload, spec or
// schedule, an unsupported field combination, and also when a failover
// run finishes but violates its own delivery invariants — the result is
// still returned alongside for diagnosis.
func Run(topo cluster.TopoNode, w coll.Workload, strat Strategy, sr SimRun) (RunResult, error) {
	return run(topo, w, strat, sr, CtrValidations)
}

// run is Run counted under an explicit run counter: the planner's probe
// loops feed CtrProbes, everything else CtrValidations.
func run(topo cluster.TopoNode, w coll.Workload, strat Strategy, sr SimRun, counter string) (RunResult, error) {
	if err := sr.validate(w, strat); err != nil {
		return RunResult{}, err
	}
	g, err := cluster.BuildGridTree(topo, sr.Seed)
	if err != nil {
		return RunResult{}, err
	}
	applySimConfig(g, sr.Sim)
	if err := w.Validate(len(g.Env.Hosts)); err != nil {
		return RunResult{}, err
	}
	c := sr.Trace
	alg, hier := DescribeStrategy(strat)
	if !hier {
		t := measureEnv(c, counter, g.Env, sr.Warmup, sr.Reps, func(r *mpi.Rank) {
			coll.RunKindFlat(r, w, coll.Direct)
		})
		return RunResult{T: t}, nil
	}

	spec := coll.GridSpec(g)
	if sr.Spec != nil {
		spec = *sr.Spec
	}
	plan, err := coll.Compile(spec, w, alg)
	if err != nil {
		return RunResult{}, err
	}
	if plan.Tree.NumRanks() != len(g.Env.Hosts) {
		return RunResult{}, fmt.Errorf("grid: plan spec covers %d ranks, topology has %d",
			plan.Tree.NumRanks(), len(g.Env.Hosts))
	}
	if sr.Faults != nil {
		return runFailover(g, topo.Name, plan, sr, counter)
	}

	// The trace format is decided here and nowhere else: All-to-All(v)
	// phase traces are a simulate.phases span emitted after the run plus
	// the per-port counters; every other kind wraps the run in a
	// simulate.kind span.
	alltoall := w.Kind == coll.KindAlltoall || w.Kind == coll.KindAlltoallv
	var pt *coll.PhaseTrace
	var kindSpan *obs.Span
	if sr.Phases {
		pt = coll.NewPhaseTrace(plan)
		if !alltoall {
			kindSpan = c.Span(SpanSimulateKind,
				obs.Str("kind", w.Kind.String()), obs.Str("topo", topo.Name), obs.Int("m", w.M))
		}
	}
	res := RunResult{T: measureEnv(c, counter, g.Env, sr.Warmup, sr.Reps, func(r *mpi.Rank) {
		coll.RunPlan(r, plan, pt)
	})}
	if !sr.Phases {
		return res, nil
	}
	res.Phases = pt.Spans()
	switch {
	case c == nil:
	case !alltoall:
		phaseEvents(kindSpan, res.Phases)
		kindSpan.End(obs.F64("t_s", res.T))
	default:
		sp := c.Span("simulate.phases", obs.Str("alg", alg.String()), obs.Int("m", w.M), obs.Str("dims", topo.Name))
		phaseEvents(sp, res.Phases)
		sp.End()
		scope := fmt.Sprintf("simulate-spec/%s/%d", topo.Name, w.M)
		if w.Kind == coll.KindAlltoallv {
			scope = "simulate-specv/" + topo.Name
		}
		g.Env.Net.PublishPorts(c, scope)
	}
	return res, nil
}

// phaseEvents records one phase event per PhaseSpan under sp: the
// per-phase/per-tier timing breakdown of a traced plan execution.
func phaseEvents(sp *obs.Span, spans []coll.PhaseSpan) {
	for _, ps := range spans {
		sp.Event("phase",
			obs.Int("phase", ps.Phase), obs.Str("label", ps.Label),
			obs.F64("start_s", ps.Start), obs.F64("end_s", ps.End),
			obs.F64("dur_s", ps.Dur()), obs.Int("ranks", ps.Ranks))
	}
}

// measureEnv measures op on a built environment and feeds the
// collector's aggregate counters under the given run counter — the one
// funnel every planner probe and Run goes through.
func measureEnv(c *obs.Collector, counter string, env *cluster.Cluster, warmup, reps int, op func(r *mpi.Rank)) float64 {
	env.Net.AttachCollector(c)
	w := mpi.NewWorld(env)
	t := coll.Measure(w, warmup, reps, op).Mean()
	addRunCounters(c, counter, env)
	return t
}

// addRunCounters feeds one finished simulation's aggregate totals into
// the collector: one run under counter, its event count, and the
// transport's loss-recovery tallies. No-op on a nil collector.
func addRunCounters(c *obs.Collector, counter string, env *cluster.Cluster) {
	if c == nil {
		return
	}
	c.Add(counter, 1)
	c.Add(CtrSimEvents, env.Sim.Events())
	ts := env.Fabric.TotalStats()
	c.Add(CtrRetransmits, uint64(ts.Retransmits))
	c.Add(CtrTimeouts, uint64(ts.Timeouts))
}

// SimulateKind is Run for a uniform kind with positional arguments; it
// exists because bench/ calls it by name.
func SimulateKind(topo cluster.TopoNode, kind coll.Kind, strat Strategy, m int, seed int64, warmup, reps int) (float64, error) {
	res, err := Run(topo, coll.Uniform(kind, m), strat, SimRun{Seed: seed, Warmup: warmup, Reps: reps})
	return res.T, err
}
