package grid

import (
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/obs"
)

// Per-kind planning: the collective suite (coll.PlanKindTree) through
// the planner pipeline. Every kind reuses the planner's fitted
// ingredients — tier transfer curves, γ_wan, the κ incast factor, probed
// coordinator headroom — via the model's one prediction entry
// (model.GridModel.Predict), plus one lazily fitted per-kind correction
// curve that absorbs what the weighted decomposition cannot know
// analytically (rendezvous pipelining between relay levels, per-kind
// transport behavior). All-to-All(v) itself never takes a correction: its
// predictions, plans and store records stay bit-identical to the
// pre-suite planner.

// SpanSimulateKind wraps one phase-traced plan execution of a kind
// other than All-to-All(v) (Run with SimRun.Phases); cmd/tracecheck's
// -span flag can assert its presence in a trace.
const SpanSimulateKind = "simulate.kind"

// StrategiesFor lists the candidate strategies of a collective kind,
// FlatDirect first and the hierarchical ones after it.
// All-to-All(v) keeps all three; the other kinds compile structurally
// identical plans under both hierarchical algorithm variants (the
// rooted relay and the weighted gather/scatter have no overlapped
// "direct" variant), so one hierarchical candidate covers them.
func StrategiesFor(kind coll.Kind) []Strategy {
	switch kind {
	case coll.KindAlltoall, coll.KindAlltoallv:
		return Strategies
	default:
		return []Strategy{FlatDirect, HierGather}
	}
}

// kindKey is the store key of one kind's fitted correction curve. The
// key embeds the full topology key, so CurveStore.Invalidate's
// substring rule drops kind fits along with the tier fits they were
// inverted against; the "K|" prefix keeps them apart from the raw
// per-tier γ records and the legacy "S|" strategy records (which are
// and remain the All-to-All fits).
func kindKey(kind coll.Kind, topo cluster.TopoNode) string {
	return "K|" + kind.String() + "|" + topoKey(topo)
}

// kindFactor returns the kind's fitted hierarchical correction curve,
// calibrating it on first use: the capped probe grid runs the kind's
// compiled plan at every probe size (counted under planner.probes, so a
// warm store still builds and predicts with zero probe simulations),
// and the per-kind model decomposition is inverted for the residual
// inflation per size. Fits land in the curve store under kindKey and
// restore without probing. Safe for concurrent use on one planner; the
// calibration must not race SelectCoordinators (the service holds the
// entry lock around both).
func (pl *Planner) kindFactor(kind coll.Kind) (model.FactorCurve, error) {
	pl.kindMu.Lock()
	defer pl.kindMu.Unlock()
	if c, ok := pl.kindGamma[kind]; ok {
		return c, nil
	}
	key := kindKey(kind, pl.Topo)
	if c, ok := pl.sv.kindCurve(nil, key); ok {
		pl.kindGamma[kind] = c
		return c, nil
	}
	opt := pl.opt
	sp := opt.Trace.Span("planner.fit_kind",
		obs.Str("kind", kind.String()), obs.Int("probe_cap", opt.ProbeCap))
	defer sp.End()
	probeTopo := cappedTree(pl.Topo, opt.ProbeCap)
	probeModel := model.GridModel{
		Root:         cappedModel(pl.Model.Root, opt.ProbeCap),
		OverlapGamma: pl.Model.OverlapGamma,
		GatherGamma:  pl.Model.GatherGamma,
		CombineBeta:  pl.Model.CombineBeta,
	}
	probes := make([]*probeRun, len(opt.ProbeSizes))
	for i, p := range opt.ProbeSizes {
		m := p
		probes[i] = &probeRun{baseSeed: opt.Seed + 131, run: func(sd int64) (float64, error) {
			return opt.probe(probeTopo, coll.Uniform(kind, m), HierGather, nil, sd)
		}}
	}
	runProbes(opt.Workers, opt.StableSpread, probes)
	points := make([]model.FactorPoint, 0, len(opt.ProbeSizes))
	for i, p := range opt.ProbeSizes {
		pr := probes[i]
		if pr.err != nil {
			return model.FactorCurve{}, pr.err
		}
		pl.recordProbe(sp, "gamma_"+kind.String(), "", "kind", p, opt.Seed+131, pr.times)
		g := 1.0
		if pred := probeModel.Predict(coll.Uniform(kind, p), HierGather, nil); pred > 0 {
			g = clampGamma(pr.median / pred)
		}
		sp.Event("fit.point", obs.Str("factor", "gamma_"+kind.String()),
			obs.Int("size", p), obs.F64("value", g))
		points = append(points, model.FactorPoint{Bytes: p, Factor: g})
	}
	curve := model.CurveOf(points...)
	pl.kindGamma[kind] = curve
	pl.sv.putKindCurve(key, curve)
	return curve, nil
}

// PredictKind returns every candidate strategy's predicted completion
// time for a collective of the given kind at per-rank contribution m,
// sorted fastest first. KindAlltoall is served bit-identically to
// Predict (no per-kind correction is ever fitted or applied to it); the
// other kinds price the flat kernel and the hierarchical plan through
// the model, with the hierarchical term scaled by the kind's lazily
// calibrated correction curve. KindAlltoallv is size-bound — it has no
// uniform-m workload, use PredictV — and is rejected like any other
// malformed workload.
func (pl *Planner) PredictKind(kind coll.Kind, m int) ([]Prediction, error) {
	w := coll.Uniform(kind, m)
	if err := w.Validate(pl.Model.TotalNodes()); err != nil {
		return nil, err
	}
	return pl.predict(w)
}

// BestKind returns the predicted-fastest strategy for the kind at
// per-rank contribution m.
func (pl *Planner) BestKind(kind coll.Kind, m int) (Prediction, error) {
	return first(pl.PredictKind(kind, m))
}

// SelectCoordinatorsKind is SelectCoordinators with candidates priced
// through the kind's hierarchical model: a reduction's coordinator
// choice weighs the relay incast, not the All-to-All exchange volume.
// KindAlltoall selects exactly as SelectCoordinators; KindAlltoallv is
// size-bound (use SelectCoordinatorsV). The decision margin, model
// application, and ω/κ refit are shared with the All-to-All path.
func (pl *Planner) SelectCoordinatorsKind(kind coll.Kind, m int) ([]CoordChoice, error) {
	return pl.selectCoordinators(coll.Uniform(kind, m))
}
