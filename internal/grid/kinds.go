package grid

import (
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/obs"
)

// Per-kind planning: the collective suite (coll.Kind) through
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

// kindFactor returns the kind's fitted hierarchical correction curve,
// calibrating it on first use: the capped probe grid runs the kind's
// compiled plan at every probe size (counted under planner.probes, so a
// warm store still builds and predicts with zero probe simulations),
// and the per-kind model decomposition is inverted for the residual
// inflation per size. Fits land in the curve store and restore without
// probing. Their key embeds the full topology key, so
// CurveStore.Invalidate's substring rule drops kind fits along with the
// tier fits they were inverted against; the "K|" prefix keeps them apart
// from the raw per-tier γ records and the "S|" strategy records (which
// are and remain the All-to-All fits). Safe for concurrent use on one
// planner; the calibration must not race SelectCoordinators (the service
// holds the entry lock around both).
func (pl *Planner) kindFactor(kind coll.Kind) (model.FactorCurve, error) {
	pl.kindMu.Lock()
	defer pl.kindMu.Unlock()
	// No span: the lookup feeds the store counters but emits no event.
	return fetch(pl.sv, nil, recKind, "K|"+kind.String()+"|"+pl.key, func() (model.FactorCurve, error) {
		opt := pl.opt
		sp := opt.Trace.Span("planner.fit_kind",
			obs.Str("kind", kind.String()), obs.Int("probe_cap", probeCap))
		defer sp.End()
		probeTopo := cappedTree(pl.Topo, probeCap)
		probeModel := model.GridModel{
			Root:         cappedModel(pl.Model.Root, probeCap),
			OverlapGamma: pl.Model.OverlapGamma,
			GatherGamma:  pl.Model.GatherGamma,
		}
		sw := &factorSweep{
			factor: "gamma_" + kind.String(), stage: "kind", seed: opt.Seed + 131,
			run: func(m int, sd int64) (float64, error) {
				return opt.probe(probeTopo, coll.Uniform(kind, m), HierGather, nil, sd)
			},
			invert: func(m int, median float64) float64 {
				if pred := probeModel.Predict(coll.Uniform(kind, m), HierGather, nil); pred > 0 {
					return clampGamma(median / pred)
				}
				return 1
			},
		}
		err := pl.sweepFactors(sp, nil, sw)
		return sw.curve, err
	})
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

// SelectCoordinatorsKind is SelectCoordinators with candidates priced
// through the kind's hierarchical model: a reduction's coordinator
// choice weighs the relay incast, not the All-to-All exchange volume.
// KindAlltoall selects exactly as SelectCoordinators; KindAlltoallv is
// size-bound (use SelectCoordinatorsV). The decision margin, model
// application, and ω/κ refit are shared with the All-to-All path.
func (pl *Planner) SelectCoordinatorsKind(kind coll.Kind, m int) ([]CoordChoice, error) {
	return pl.selectCoordinators(coll.Uniform(kind, m))
}
