package exp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the one grid validation sweep behind GR1–GR5 and GR7 —
// topology × workload × strategy → predicted vs two-seed simulated mean
// → best-strategy verdict — and the fixtures the grid experiments
// (GR6 included) share. An experiment is a topology, a case table,
// column names, a tie tolerance and its characterization notes.

// plannerOpts is the characterization every grid experiment runs: the
// signature fit at fitN nodes (scaled), cfg's engine, trace and
// repetitions, and a per-experiment seed shift off the validation seeds.
func (cfg Config) plannerOpts(fitN int, seedShift int64) grid.Options {
	return grid.Options{
		FitN:    scaleCount(fitN, cfg.Scale, fitN),
		SimMode: cfg.SimMode,
		Trace:   cfg.Trace,
		Reps:    cfg.Reps,
		Seed:    cfg.Seed + seedShift,
	}
}

// simMean is the ground truth every grid experiment validates against:
// packet-level grid.Run at cfg's repetitions, averaged over two seeds
// because single runs of lossy TCP over a WAN are RTO-noisy. A non-nil
// spec is the selected plan; it applies to the hierarchical strategies
// only (FlatDirect has no plan).
func (cfg Config) simMean(topo cluster.TopoNode, w coll.Workload, strat grid.Strategy, spec *coll.TreeSpec) (float64, error) {
	seeds := []int64{cfg.Seed + 6, cfg.Seed + 18}
	t := 0.0
	for _, seed := range seeds {
		sr := grid.SimRun{Seed: seed, Warmup: 1, Reps: cfg.Reps}
		if _, hier := grid.DescribeStrategy(strat); hier {
			sr.Spec = spec
		}
		one, err := grid.Run(topo, w, strat, sr)
		if err != nil {
			return 0, err
		}
		t += one.T / float64(len(seeds))
	}
	return t, nil
}

// namedTopo is a validation topology and the name its notes carry.
type namedTopo struct {
	name string
	topo cluster.TopoNode
}

// forValidationPair characterizes the two topologies GR4, GR5 and GR7
// validate on — a two-level 2×GigE grid over 20 ms and a 3-level 2×2
// campus grid over 10/40 ms — and hands each planner to visit; a failed
// characterization is noted and that topology left out. prefix names
// the topologies per experiment, so trace attributes tell them apart.
func forValidationPair(cfg Config, res *Result, prefix string, visit func(ti int, tc namedTopo, pl *grid.Planner)) {
	ge := cluster.WANTuned(cluster.GigabitEthernet())
	topos := []namedTopo{
		{"2lvl-2x4-wan20", cluster.Uniform(prefix+"-2lvl", ge, 2,
			scaleCount(4, cfg.Scale/0.25, 4), cluster.DefaultWAN(20*sim.Millisecond)).Tree()},
		{"3lvl-2x2x2-wan10/40", cluster.ThreeLevel(prefix+"-3lvl", ge, 2, 2,
			scaleCount(2, cfg.Scale/0.25, 2),
			cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))},
	}
	for ti, tc := range topos {
		pl, err := grid.NewPlanner(tc.topo, cfg.plannerOpts(6, 2))
		if err != nil {
			res.Note("%s: planner characterization failed: %v", tc.name, err)
			continue
		}
		visit(ti, tc, pl)
	}
}

// heteroGrid is the hetero-3lvl shape of GR3 and GR6: 2 nations × 2
// campuses of Gigabit Ethernet over 10 ms campus and 40 ms continental
// tiers, every campus's lowest rank on a legacy 100 Mb access port.
func heteroGrid(name string, cfg Config) cluster.TopoNode {
	p := cluster.WANTuned(cluster.GigabitEthernet())
	p.Name = "gigabit-ethernet-mixed-nics"
	p.NodeLinkRates = []int64{12_500_000} // rank 0 of each campus on 100 Mb
	return cluster.ThreeLevel(name, p, 2, 2, scaleCount(4, cfg.Scale/0.25, 3),
		cluster.DefaultWAN(10*sim.Millisecond), cluster.DefaultWAN(40*sim.Millisecond))
}

// countNonDefault tallies coordinator choices that moved off the
// lowest-rank default.
func countNonDefault(choices []grid.CoordChoice) int {
	n := 0
	for _, c := range choices {
		if !c.Default {
			n++
		}
	}
	return n
}

// counterValues snapshots a collector's counters by name, so a delta
// over several counters scans them once per side. (Collector.Counter
// would create a missing counter and so change the trace.)
func counterValues(c *obs.Collector) map[string]float64 {
	out := map[string]float64{}
	for _, cv := range c.Counters() {
		out[cv.Name] = float64(cv.Value)
	}
	return out
}

// predictAll is the sweep's single dispatch onto the planner's three
// prediction entry points, which cannot be renamed while the read-only
// bench/ compiles against them. Delete with ROADMAP item 1, when
// Planner exposes Predict(coll.Workload).
func predictAll(pl *grid.Planner, w coll.Workload) ([]grid.Prediction, error) {
	switch w.Kind {
	case coll.KindAlltoall:
		return pl.Predict(w.M), nil
	case coll.KindAlltoallv:
		return pl.PredictV(w.Sizes), nil
	default:
		return pl.PredictKind(w.Kind, w.M)
	}
}

// gridCase is one row group of a sweep: a workload, the key columns
// leading its rows, and the label its notes carry.
type gridCase struct {
	label string
	key   []float64
	w     coll.Workload
}

// alltoallCases is the case table of a message-size sweep: one uniform
// All-to-All per size, keyed by msg_bytes. The sizes are given at the
// CI default scale.
func alltoallCases(cfg Config, sizes ...int) []gridCase {
	var cases []gridCase
	for _, m := range scaleSizes(sizes, cfg.Scale/0.25) {
		cases = append(cases, gridCase{fmt.Sprintf("m=%d", m), []float64{float64(m)}, coll.Uniform(coll.KindAlltoall, m)})
	}
	return cases
}

// simCell is one strategy's successful validation simulation.
type simCell struct {
	strat grid.Strategy
	t     float64
}

// outcome is a case's ranking verdict: the planner's pick against the
// fastest simulated strategy.
type outcome int

const (
	skipped  outcome = iota // no strategy simulated; the case is not counted
	agree                   // the pick is the fastest simulated strategy
	tied                    // the pick simulates within the tie tolerance of it
	disagree                // neither, or the pick itself failed to simulate
)

// judge ranks the planner's pick against the strategies whose
// simulation succeeded and renders the verdict note. A case with no
// successful simulation is skipped (and not counted); a failed strategy
// is left out of the ranking, so a pick that failed to simulate
// disagrees. tol is the simulated regret within which a non-best pick
// still counts as tied; 0 demands the exact argmin.
func judge(pick grid.Strategy, cells []simCell, tol float64) (outcome, string) {
	if len(cells) == 0 {
		return skipped, "no successful simulations, case skipped"
	}
	best, pickT := cells[0], math.Inf(1)
	for _, c := range cells {
		if c.t < best.t {
			best = c
		}
		if c.strat == pick {
			pickT = c.t
		}
	}
	switch {
	case pick == best.strat:
		return agree, fmt.Sprintf("planner and simulation agree on %v", pick)
	case pickT <= best.t*(1+tol):
		return tied, fmt.Sprintf("planner picked %v, statistically tied with simulation's %v (%.1f%% apart)",
			pick, best.strat, 100*(pickT/best.t-1))
	default:
		return disagree, fmt.Sprintf("planner picked %v, simulation preferred %v", pick, best.strat)
	}
}

// strategyLegend names the strat_idx values of the given strategies.
func strategyLegend(strategies []grid.Strategy) string {
	legend := "strategies:"
	for _, s := range strategies {
		legend += fmt.Sprintf(" %d=%v", int(s), s)
	}
	return legend
}

// gridSweep accumulates one experiment's prediction-vs-simulation
// table: rows `key… | strat_idx | [baseline_s] | predicted_s |
// simulated_s | [baseline_err_pct] | err_pct` (the experiment names the
// columns), a verdict note per case, and the agreement tally.
type gridSweep struct {
	cfg  Config
	res  *Result
	rows Series
	// tol is judge's tie tolerance.
	tol float64

	agreed, counted int
	ran             []grid.Strategy // strategies simulated so far, in strat_idx order
}

// run validates one characterized topology on a case table: each case
// is priced (baseline, when non-nil, is an extra predictor column priced
// before the planner, e.g. GR5's scalarized model), every candidate
// strategy of its kind is simulated through simMean (spec, when
// non-nil, being the selected plan), and the rows and verdict are
// appended. A failed strategy is noted with its grid.Run error and left
// out of the ranking.
func (sw *gridSweep) run(pl *grid.Planner, topo cluster.TopoNode, spec *coll.TreeSpec,
	baseline func(coll.Workload, grid.Strategy) float64, cases []gridCase) {
	for _, c := range cases {
		strategies := grid.StrategiesFor(c.w.Kind)
		// predOf lists each strategy's predictions in column order: the
		// baseline's, if any, then the planner's.
		predOf := map[grid.Strategy][]float64{}
		if baseline != nil {
			for _, strat := range strategies {
				predOf[strat] = []float64{baseline(c.w, strat)}
			}
		}
		preds, err := predictAll(pl, c.w)
		if err != nil {
			sw.res.Note("%s: prediction failed: %v", c.label, err)
			continue
		}
		for _, pr := range preds {
			predOf[pr.Strategy] = append(predOf[pr.Strategy], pr.T)
		}
		var cells []simCell
		for _, strat := range strategies {
			if !slices.Contains(sw.ran, strat) {
				sw.ran = append(sw.ran, strat) // candidates are prefixes of grid.Strategies
			}
			simT, err := sw.cfg.simMean(topo, c.w, strat, spec)
			if err != nil {
				sw.res.Note("%s %v: simulation failed: %v", c.label, strat, err)
				continue
			}
			row := append(append([]float64(nil), c.key...), float64(strat))
			row = append(append(row, predOf[strat]...), simT)
			for _, pred := range predOf[strat] {
				row = append(row, 100*(pred/simT-1))
			}
			sw.rows.Rows = append(sw.rows.Rows, row)
			cells = append(cells, simCell{strat, simT})
		}
		v, note := judge(preds[0].Strategy, cells, sw.tol)
		sw.res.Note("%s: %s", c.label, note)
		if v != skipped {
			sw.counted++
		}
		if v == agree || v == tied {
			sw.agreed++
		}
	}
}

// publish appends the sweep's table to the result, followed by the
// strat_idx legend of the strategies the sweep actually ran.
func (sw *gridSweep) publish() {
	sw.res.Series = append(sw.res.Series, sw.rows)
	sw.res.Note("%s", strategyLegend(sw.ran))
}

// noteAgreement appends the agreement tally; format takes the agreeing
// and the counted (non-skipped) case numbers.
func (sw *gridSweep) noteAgreement(format string) { sw.res.Note(format, sw.agreed, sw.counted) }
