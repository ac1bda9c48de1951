package grid

import (
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Observability names of the failover runtime.
const (
	// SpanFailover wraps one failover execution end to end.
	SpanFailover = "failover.run"
	// EvFailoverDeclare marks one confirmed death declaration.
	EvFailoverDeclare = "failover.declare"
	// EvFailoverEpoch marks a recovery epoch opening.
	EvFailoverEpoch = "failover.epoch"
	// CtrFailoverEpochs counts recovery epochs across a trace.
	CtrFailoverEpochs = "failover.epochs"
	// CtrFailoverDeclared counts declared deaths across a trace.
	CtrFailoverDeclared = "failover.declared"
)

// runFailover is Run's SimRun.Faults mode: it arms the fault schedule
// on the built network and executes the compiled plan once under the
// epoch-failover runtime — rendezvous timeouts are checked against the
// schedule's ground truth, confirmed-dead coordinators are replaced by
// the spec's ranked standbys, recovery replans compile per kind, and
// delivery stays exactly-once among survivors, verified against the
// kind's own block universe (coll.FailoverRun). Declarations and epochs
// land on the collector as events inside a failover.run span.
func runFailover(g *cluster.Grid, topoName string, plan *coll.HierPlan, sr SimRun, counter string) (RunResult, error) {
	c, fs, w := sr.Trace, *sr.Faults, plan.Workload
	if err := g.Env.Net.ApplyFaults(fs); err != nil {
		return RunResult{}, err
	}
	g.Env.Net.AttachCollector(c)
	sp := c.Span(SpanFailover, obs.Str("topo", topoName), obs.Str("kind", w.Kind.String()),
		obs.Int("m", w.M), obs.Int("link_faults", len(fs.Links)), obs.Int("node_faults", len(fs.Nodes)))
	fr := coll.NewFailoverRun(plan, coll.FailoverConfig{
		Timeout: sr.Timeout,
		IsDead: func(rank int) bool {
			return fs.NodeLostBy(g.Env.Hosts[rank].Name(), g.Env.Sim.Now())
		},
		Quench: func(rank int) { g.Env.Fabric.Quench(rank) },
		OnDeclare: func(rank, epoch int, now sim.Time) {
			c.Add(CtrFailoverDeclared, 1)
			sp.Event(EvFailoverDeclare, obs.Int("rank", rank), obs.Int("epoch", epoch),
				obs.F64("t", now.Seconds()))
		},
		OnEpoch: func(epoch int, now sim.Time) {
			c.Add(CtrFailoverEpochs, 1)
			sp.Event(EvFailoverEpoch, obs.Int("epoch", epoch), obs.F64("t", now.Seconds()))
		},
	})
	mpi.NewWorld(g.Env).Run(func(r *mpi.Rank) { fr.Run(r) })
	res := fr.Result()
	var tEnd sim.Time
	for _, ft := range res.FinishAt {
		if ft > tEnd {
			tEnd = ft
		}
	}
	addRunCounters(c, counter, g.Env)
	sp.End(obs.Int("epochs", res.Epochs), obs.Int("dead", len(res.Dead)),
		obs.Int("delivered", res.DeliveredBlocks), obs.Int("waived", res.WaivedBlocks))
	return RunResult{T: tEnd.Seconds(), Failover: res}, fr.Verify()
}
