package grid

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Observability plumbing for the planner pipeline. Everything here is
// gated on a nil check of Options.Trace (an *obs.Collector): a planner
// built without one runs the exact pre-instrumentation code paths plus
// nil checks.

// Aggregate counter names the planner feeds while characterizing and
// validating (in addition to the netsim.* counters the packet layer
// publishes through the same collector).
const (
	// CtrProbes counts probe simulations run (signature sweeps, WAN
	// ping-pongs, headroom probes, and contention-factor probes alike).
	CtrProbes = "planner.probes"
	// CtrSimEvents accumulates discrete-event counts across all probe
	// and validation simulators — the work metric behind the benchmark's
	// sim.events_per_op (bench/README.md).
	CtrSimEvents = "sim.events"
	// CtrRetransmits accumulates transport retransmissions (fast and
	// timeout-driven) across traced simulations.
	CtrRetransmits = "transport.retransmits"
	// CtrTimeouts accumulates transport RTO firings across traced
	// simulations.
	CtrTimeouts = "transport.timeouts"
	// CtrValidations counts traced validation simulations (Run with a
	// SimRun.Trace) — ground-truth runs of an already-planned
	// collective. Kept apart from CtrProbes so a
	// warm-store planner run reports planner.probes = 0 even when its
	// diagnostics re-simulate the chosen plan.
	CtrValidations = "planner.validations"
	// CtrStoreHit / CtrStoreMiss count CurveStore lookups during planner
	// builds, per record (leaf fit, headroom, tier curve, γ/ω/κ fits):
	// a fully warm build is all hits and zero probes, and a regression
	// that stops consulting the store shows up as misses before it shows
	// up as time.
	CtrStoreHit  = "store.hit"
	CtrStoreMiss = "store.miss"
	// CtrStoreRefit counts planner builds that mixed store hits and
	// misses — incremental re-fits that re-probed only the records the
	// store lacked (typically after CurveStore.Invalidate).
	CtrStoreRefit = "store.refit"
	// CtrStoreStale counts write-backs dropped by the build-epoch guard:
	// a planner build that raced a CurveStore.Invalidate finished with
	// pre-invalidation fits and was barred from re-inserting them.
	CtrStoreStale = "store.stale_drop"
	// CtrServiceEvict counts planner-cache evictions in grid.Service
	// (least-recently-used past Options.CacheCap).
	CtrServiceEvict = "service.evict"
)

// ProbeWarning flags a seed-lottery strategy probe: at Size, the two
// hierarchical strategies' per-seed completion supports overlap, so the
// fitted ω/κ ordering at that size is a draw between seeds rather than
// a measurement (the FE 3-level 64 KiB case: 2.3–9.1 s overlapping
// supports). Surfaced in Planner.Warnings and, when tracing, as a
// probe.unstable event — the groundwork for a stop-when-stable
// sampling rule.
type ProbeWarning struct {
	// Stage is "characterize" (NewPlanner's initial fit) or "refit"
	// (the post-selection refit, which re-probes the chosen plan).
	Stage string
	// Size is the probe's per-pair message size in bytes.
	Size int
	// HDMin..HDMax is the hier-direct probe's per-seed support (s).
	HDMin, HDMax float64
	// HGMin..HGMax is the hier-gather probe's per-seed support (s).
	HGMin, HGMax float64
}

// String renders the warning for planner output.
func (w ProbeWarning) String() string {
	return fmt.Sprintf("probe unstable (%s, %d B): hier-direct %.3g–%.3gs overlaps hier-gather %.3g–%.3gs — ranking at this size is seed-sensitive",
		w.Stage, w.Size, w.HDMin, w.HDMax, w.HGMin, w.HGMax)
}

// ProbeStat summarizes one contention-factor probe's per-seed spread —
// the dispersion a trace records as probe.sample/probe.dispersion
// events, kept on the Planner so callers can render it (textplot)
// without a collector.
type ProbeStat struct {
	// Factor names the fitted factor: "gamma_wan", "omega", "kappa".
	Factor string
	// Tier names the tier being fitted (γ_wan only; empty for the
	// whole-tree strategy factors).
	Tier string
	// Stage is "characterize" or "refit".
	Stage string
	// Size is the probe's per-pair message size in bytes.
	Size int
	// Min, Median, Max are the per-seed completion times (s).
	Min, Median, Max float64
}

// Label renders a compact identifier for plots: "ω@64k", "γ@8k(t1)".
func (s ProbeStat) Label() string {
	short := map[string]string{"gamma_wan": "γ", "omega": "ω", "kappa": "κ"}[s.Factor]
	if short == "" {
		short = s.Factor
	}
	lbl := fmt.Sprintf("%s@%s", short, sizeLabel(s.Size))
	if s.Tier != "" {
		lbl += "(" + s.Tier + ")"
	}
	return lbl
}

// sizeLabel renders a byte count compactly (8k, 1M, 300).
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// dispersion reduces per-seed probe times to (min, median, max). The
// input is not mutated; an empty slice returns zeros.
func dispersion(times []float64) (lo, med, hi float64) {
	if len(times) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	return s[0], s[len(s)/2], s[len(s)-1]
}

// recordProbe emits the per-seed samples and their dispersion for one
// (factor, size) probe under sp, appends the ProbeStat to the planner,
// and returns the dispersion. times are in probeSeeds order.
func (pl *Planner) recordProbe(sp *obs.Span, factor, tier, stage string, size int, baseSeed int64, times []float64) (lo, med, hi float64) {
	lo, med, hi = dispersion(times)
	pl.ProbeStats = append(pl.ProbeStats, ProbeStat{
		Factor: factor, Tier: tier, Stage: stage, Size: size, Min: lo, Median: med, Max: hi,
	})
	if sp != nil {
		for i, sd := range probeSeeds(baseSeed) {
			if i < len(times) {
				sp.Event("probe.sample",
					obs.Str("factor", factor), obs.Int("size", size),
					obs.I64("seed", sd), obs.F64("t_s", times[i]))
			}
		}
		sp.Event("probe.dispersion",
			obs.Str("factor", factor), obs.Int("size", size),
			obs.F64("min_s", lo), obs.F64("median_s", med), obs.F64("max_s", hi))
	}
	return lo, med, hi
}

// checkOverlap records a ProbeWarning (and a probe.unstable event when
// tracing) when the two strategies' per-seed supports intersect.
func (pl *Planner) checkOverlap(sp *obs.Span, stage string, size int, hd, hg []float64) {
	hdLo, _, hdHi := dispersion(hd)
	hgLo, _, hgHi := dispersion(hg)
	if hdLo > hgHi || hgLo > hdHi {
		return
	}
	pl.Warnings = append(pl.Warnings, ProbeWarning{
		Stage: stage, Size: size, HDMin: hdLo, HDMax: hdHi, HGMin: hgLo, HGMax: hgHi,
	})
	if sp != nil {
		sp.Event("probe.unstable",
			obs.Str("stage", stage), obs.Int("size", size),
			obs.F64("hd_min_s", hdLo), obs.F64("hd_max_s", hdHi),
			obs.F64("hg_min_s", hgLo), obs.F64("hg_max_s", hgHi))
	}
}
