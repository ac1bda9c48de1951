// Package grid implements the contention-aware planner for multi-level
// grid All-to-All: given a cluster topology tree (cluster.TopoNode) and
// a message size, it predicts the completion time of each candidate
// strategy (flat direct exchange, hierarchical gather, hierarchical
// direct) from the per-cluster contention signatures and per-tier WAN
// terms, and selects the best — the paper's "performance prediction
// framework" use case, extended from one cluster to grids of grids.
//
// Characterization follows the paper's Section 7 procedure per member
// network: a ping-pong calibrates the contention-free Hockney
// parameters, a small All-to-All sweep at a modest process count fits
// the contention signature, and the signature extrapolates. Each WAN
// tier is characterized empirically on a minimal (one node per cluster)
// instance of the same topology — a ping-pong between two subtrees
// joined at that tier, so propagation, router forwarding and transport
// window effects land in the tier's curve. The contention factors the
// analytics cannot supply are fitted from capped probe grids, one tier
// at a time from the innermost outward.
package grid

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Strategy is one candidate execution strategy on a grid; the model
// that prices the strategies defines it.
type Strategy = model.Strategy

// The candidate strategies (see model.Strategy).
const (
	FlatDirect = model.FlatDirect
	HierGather = model.HierGather
	HierDirect = model.HierDirect
)

// Strategies lists all candidate strategies.
var Strategies = []Strategy{FlatDirect, HierGather, HierDirect}

// tagWANProbe is the reserved tag of the WAN ping-pong probe.
const tagWANProbe int32 = 7100

// Characterization constants. Fitted values depend on them, so
// Options.fingerprint renders them (psize, pcap, maxc) — in the format
// stores already on disk were bound under.
const (
	// headroomProbeSize is the per-pair message size of the per-node
	// headroom ping-pongs (the probe transfers 4× this).
	headroomProbeSize = 64 << 10
	// probeCap caps per-cluster node counts in probe grids: large enough
	// that uplink sharing and LAN/WAN overlap interference show up, small
	// enough to stay affordable.
	probeCap = 4
	// maxCoords caps how many coordinators SelectCoordinators may split
	// one leaf's relay across.
	maxCoords = 2
)

// Options tunes planner characterization. Zero values take defaults.
type Options struct {
	// FitN is the process count n' at which each member network's
	// signature is fitted (default 8).
	FitN int
	// FitSizes is the message sweep of the fit (default 16k..512k, 5
	// points; at least 4 distinct positive sizes are required).
	FitSizes []int
	// WANSizes is the transfer sweep of the per-tier WAN ping-pong
	// curves (default 2k..1M, 5 points; at least 2 distinct positive
	// sizes are required — duplicates are deduplicated, never measured
	// into zero-width curve segments).
	WANSizes []int
	// ProbeSizes are the per-pair message sizes the contention-factor
	// probes fit each factor curve at (default 8 KiB / 64 KiB /
	// 256 KiB). Every distinct size contributes one fitted point per
	// factor (γ_wan per tier, ω, κ); a single size yields single-point
	// curves — the scalar-factor model, whose lookups are
	// size-independent and pinned bit-identical to the pre-curve
	// predictions at the model level (the fitted values themselves come
	// from the multi-seed median probes below, not the pre-curve
	// single-seed probe). Every probe runs at least three seeds and
	// fits the median run — extending to five when the first three
	// disperse past StableSpread — stabilizing the fits, and with them
	// the flat-vs-hier crossover, against heavy-tailed loss-recovery
	// draws (see runProbes).
	ProbeSizes []int
	// Reps is the repetitions per measured point (default 2).
	Reps int
	// Seed drives the characterization simulations.
	Seed int64
	// StableSpread is the stop-when-stable threshold of the
	// contention-factor probes (default 0.5): each probe runs three
	// seeds, and only when the per-seed spread (max−min) exceeds
	// StableSpread × median — the probe.unstable dispersion signal —
	// does it sample the two extra seeds (bounded at five, median of
	// all). Stable probes stay at three samples; seed-lottery cases
	// (overlapping strategy supports, RTO-noisy sizes) buy a wider
	// median. Must be positive and finite.
	StableSpread float64
	// Trace, when non-nil, collects the characterization's spans and
	// events (per-tier WAN probes, per-seed factor-probe samples and
	// dispersion, fitted curve points) plus aggregate counters (probe
	// count, simulator events, transport retransmits). The planner also
	// hands it to the model on every prediction it serves, so those emit
	// factor.lookup events into the same trace. Nil disables all
	// tracing; the disabled paths cost nil checks only.
	Trace *obs.Collector
	// SimMode selects the simulation engine for WAN probe and
	// validation simulations (default sim.ModePacket, the ground
	// truth). sim.ModeFluid prices large WAN transfers analytically —
	// much faster, within the model's acceptance tolerance above
	// FluidThreshold — and changes fitted values, so it is part of the
	// store fingerprint. LAN-only simulations (leaf signature fits,
	// headroom probes) are unaffected: the fluid path only engages on
	// WAN-crossing transfers.
	SimMode sim.Mode
	// FluidThreshold is the payload-byte cutoff below which fluid-mode
	// simulations still run packet-level (default
	// netsim.DefaultFluidThreshold = 32 KiB, the RTO-noisy regime of
	// docs/MODEL.md §6). Ignored under ModePacket.
	FluidThreshold int
	// Workers bounds the probe worker pool: independent probe
	// simulations (per-seed, per-size) fan out across up to Workers
	// goroutines, each on its own Simulator. Default
	// runtime.GOMAXPROCS(0); 1 forces fully sequential execution.
	// Fitted results are bit-identical for any Workers value, so it is
	// excluded from the store fingerprint.
	Workers int
	// CacheCap bounds Service's planner cache: past CacheCap cached
	// planners, the least-recently-used ready entry is evicted (and
	// rebuilds warm from the store if asked for again). Default 256.
	// Excluded from the store fingerprint.
	CacheCap int
}

func (o Options) withDefaults() Options {
	if o.FitN == 0 {
		o.FitN = 8
	}
	if len(o.FitSizes) == 0 {
		o.FitSizes = []int{16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	}
	if len(o.WANSizes) == 0 {
		o.WANSizes = []int{2 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	if len(o.ProbeSizes) == 0 {
		o.ProbeSizes = []int{8 << 10, 64 << 10, 256 << 10}
	}
	if o.Reps == 0 {
		o.Reps = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.StableSpread == 0 {
		o.StableSpread = 0.5
	}
	if o.FluidThreshold == 0 {
		o.FluidThreshold = netsim.DefaultFluidThreshold
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheCap == 0 {
		o.CacheCap = 256
	}
	o.FitSizes = sortedDistinct(o.FitSizes)
	o.WANSizes = sortedDistinct(o.WANSizes)
	o.ProbeSizes = sortedDistinct(o.ProbeSizes)
	return o
}

// sortedDistinct returns a sorted copy of sizes with duplicates
// removed; the caller's slice is never mutated. Non-positive entries
// are kept (leftmost after sorting) so validation can reject them.
func sortedDistinct(sizes []int) []int {
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	kept := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			kept = append(kept, v)
		}
	}
	return kept
}

// validate rejects probe/fit sweeps a characterization cannot use:
// non-positive sizes, too few distinct points (a WAN curve needs ≥ 2
// to interpolate — equal-size points would make Transfer's segments
// zero-width — and the signature fit needs ≥ 4 samples for its four
// parameters), FitN < 2 and negative counts. Called by NewPlanner,
// NewService and FitLeaf after defaults, so a zero Options passes.
func (o Options) validate() error {
	for _, c := range []struct {
		name     string
		sizes    []int
		distinct int
	}{
		{"FitSizes", o.FitSizes, 4},
		{"WANSizes", o.WANSizes, 2},
		{"ProbeSizes", o.ProbeSizes, 1},
	} {
		if len(c.sizes) > 0 && c.sizes[0] <= 0 {
			return fmt.Errorf("grid: %s contains non-positive size %d", c.name, c.sizes[0])
		}
		if len(c.sizes) < c.distinct {
			return fmt.Errorf("grid: %s has %d distinct size(s), need at least %d",
				c.name, len(c.sizes), c.distinct)
		}
	}
	if o.FitN < 2 {
		return fmt.Errorf("grid: FitN %d is below 2, the smallest All-to-All", o.FitN)
	}
	if o.Reps < 0 {
		return fmt.Errorf("grid: Reps %d is negative", o.Reps)
	}
	if o.StableSpread <= 0 || math.IsNaN(o.StableSpread) || math.IsInf(o.StableSpread, 0) {
		return fmt.Errorf("grid: StableSpread %v is not a positive finite threshold", o.StableSpread)
	}
	if o.FluidThreshold < 0 {
		return fmt.Errorf("grid: FluidThreshold %d is negative", o.FluidThreshold)
	}
	if o.Workers < 0 {
		return fmt.Errorf("grid: Workers %d is negative", o.Workers)
	}
	if o.CacheCap < 0 {
		return fmt.Errorf("grid: CacheCap %d is negative", o.CacheCap)
	}
	return nil
}

// fingerprint renders the characterization-relevant options as the
// store's compatibility key: two planners may share fitted curves only
// when every probe sweep, cap, and seed matches — the fitted values are
// functions of all of them. Trace is excluded (tracing never perturbs
// fits; see TestTracingDoesNotPerturbResults), as are Workers and
// CacheCap (parallel characterization is pinned bit-identical to
// sequential, and the cache cap never touches fitted values). SimMode
// is included when fluid — fluid-mode fits are a different (cheaper)
// measurement — with the packet-mode rendering kept byte-identical to
// the pre-fluid format so existing stores stay valid. Call after
// withDefaults.
func (o Options) fingerprint() string {
	fp := fmt.Sprintf("fitn=%d fit=%v wan=%v probes=%v psize=%d pcap=%d maxc=%d reps=%d seed=%d stable=%g",
		o.FitN, o.FitSizes, o.WANSizes, o.ProbeSizes, headroomProbeSize, probeCap,
		maxCoords, o.Reps, o.Seed, o.StableSpread)
	if o.SimMode == sim.ModeFluid {
		fp += fmt.Sprintf(" mode=fluid thr=%d", o.FluidThreshold)
	}
	return fp
}

// SimConfig selects the simulation engine a ground-truth run uses.
// The zero value is full packet-level simulation.
type SimConfig struct {
	// Mode is the engine (packet or fluid).
	Mode sim.Mode
	// FluidThreshold is the packet-fallback byte cutoff under
	// ModeFluid; zero selects netsim.DefaultFluidThreshold.
	FluidThreshold int
}

// simCfg extracts the engine selection from planner options.
func (o Options) simCfg() SimConfig {
	return SimConfig{Mode: o.SimMode, FluidThreshold: o.FluidThreshold}
}

// probe runs one characterization simulation through the Run pipeline
// under the planner's collector, engine and repetition settings,
// counted under planner.probes. spec is nil for the default plan.
func (o Options) probe(topo cluster.TopoNode, w coll.Workload, strat Strategy, spec *coll.TreeSpec, seed int64) (float64, error) {
	res, err := run(topo, w, strat, SimRun{
		Trace: o.Trace, Sim: o.simCfg(), Seed: seed, Warmup: 1, Reps: o.Reps, Spec: spec,
	}, CtrProbes)
	return res.T, err
}

// applySimConfig arms the selected engine on a freshly built grid.
func applySimConfig(g *cluster.Grid, sc SimConfig) {
	if sc.Mode == sim.ModeFluid {
		g.Env.Net.EnableFluid(netsim.FluidConfig{Threshold: sc.FluidThreshold})
	}
}

// probeSeeds returns the candidate seeds a contention-factor probe may
// run over, in execution order (runProbes keeps the median of the
// seeds it actually ran): the first three always run — lossy-TCP WAN
// completion is seed-sensitive everywhere, worst in the RTO-noisy
// small bracket (≤ 32 KiB, docs/MODEL.md §6), and a median needs an
// odd sample — and the last two only when the first three disperse
// past Options.StableSpread. The offsets are fixed primes so the same
// base seed reproduces the same samples in any process.
func probeSeeds(base int64) []int64 {
	return []int64{base, base + 97, base + 193, base + 389, base + 577}
}

// probeSeedsInitial is how many probeSeeds entries every probe runs;
// the remainder run only on an unstable first dispersion.
const probeSeedsInitial = 3

// Planner predicts and ranks grid All-to-All strategies.
type Planner struct {
	// Topo is the topology tree the planner was characterized for.
	Topo cluster.TopoNode
	// Model is the assembled multi-level grid model.
	Model model.GridModel
	// Hockney holds the calibrated point-to-point parameters per leaf
	// cluster, in tree order (diagnostic).
	Hockney []model.Hockney
	// Headroom holds the probed per-node NIC rates in bytes/s, per leaf
	// in tree order: Headroom[l][i] is leaf l's node i. Coordinator
	// selection ranks candidates by it.
	Headroom [][]float64
	// Selected holds the per-leaf coordinator selection after
	// SelectCoordinators; nil until then (the lowest-rank default).
	Selected []CoordChoice
	// Warnings flags seed-sensitive strategy probes discovered while
	// fitting (see ProbeWarning). Populated whether or not a Trace
	// collector is set.
	Warnings []ProbeWarning
	// ProbeStats holds every contention-factor probe's per-seed
	// dispersion in fit order, for diagnostics rendering. Populated
	// whether or not a Trace collector is set.
	ProbeStats []ProbeStat

	opt Options
	// key is topoKey(Topo), the stem of every whole-topology record key.
	key string
	// sv is the planner's window onto the optional CurveStore (always
	// non-nil; without a store it only memoizes). Kept on the planner so
	// the post-selection refit (coords.go) and the lazy per-kind fits
	// (kinds.go) share the initial characterization's get-or-fit path and
	// hit/miss accounting.
	sv *storeView
	// kindMu serializes the lazy per-kind fits: predictions run
	// concurrently on one planner, and sv is single-goroutine.
	kindMu sync.Mutex
}

// NewPlanner characterizes every member network and every WAN tier of
// the topology and assembles the grid model. Identical member profiles
// (uniform grids) are characterized once, as are structurally identical
// subtrees during contention-factor fitting.
func NewPlanner(topo cluster.TopoNode, opt Options) (*Planner, error) {
	return newPlannerWithStore(topo, opt, nil)
}

// newPlannerWithStore is NewPlanner against an optional persistent
// CurveStore: every characterization artifact — leaf Hockney+signature
// fits, per-node headroom, per-tier WAN curves, fitted γ_wan and ω/κ
// curves — goes through fetch: looked up in the store before probing and
// written back after, with store.hit/store.miss events and counters per
// record kind (so planner.probes stays the cache-regression signal: a
// fully warm store builds a planner with zero probe simulations). A nil
// store is the plain NewPlanner: fetch only memoizes. The simulations behind every
// record are deterministic in (topology, Options), so a warm build's
// fitted values are bit-identical to a cold build's — the property the
// service tests pin.
func newPlannerWithStore(topo cluster.TopoNode, opt Options, st *CurveStore) (*Planner, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if st != nil {
		// Fitted values are functions of the probe configuration: refuse
		// to serve one configuration's curves to another.
		if err := st.bind(opt.fingerprint()); err != nil {
			return nil, err
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.NumLeaves() < 2 {
		// A single cluster is the paper's base case: use the plain
		// contention signature, there is no WAN to characterize.
		return nil, fmt.Errorf("grid: topology %q has %d leaf cluster(s), planner needs at least 2",
			topo.Name, topo.NumLeaves())
	}
	var checkGroups func(t cluster.TopoNode) error
	checkGroups = func(t cluster.TopoNode) error {
		if t.IsLeaf() {
			return nil
		}
		if len(t.Children) < 2 {
			return fmt.Errorf("grid: topology %q has a single-child tier, planner needs ≥ 2 subtrees per tier", topo.Name)
		}
		for _, c := range t.Children {
			if err := checkGroups(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkGroups(topo); err != nil {
		return nil, err
	}

	pl := &Planner{Topo: topo, opt: opt, key: topoKey(topo), sv: newStoreView(st, opt.Trace)}
	rootSpan := opt.Trace.Span("planner.characterize",
		obs.Str("topo", topo.Name), obs.Int("leaves", topo.NumLeaves()),
		obs.Int("nodes", topo.TotalNodes()))
	defer rootSpan.End()

	// Leaf characterization, keyed on the full profile value (members
	// sharing a name but not tuning must not share a fit).
	sigs := make([]model.Signature, 0, topo.NumLeaves())
	for _, lf := range topo.Leaves() {
		p := lf.Profile
		rec, err := fetch(pl.sv, rootSpan, recLeaf, profileKey(p), func() (storedLeaf, error) {
			fit, err := fitLeaf(p, coll.PostAll, opt, rootSpan.Span)
			return storedLeaf{Hockney: fit.Hockney, Signature: fit.Signature}, err
		})
		if err != nil {
			return nil, err
		}
		pl.Hockney = append(pl.Hockney, rec.Hockney)
		sigs = append(sigs, rec.Signature)
	}

	// Per-node uplink headroom, probed once per distinct (profile, size)
	// member on a standalone leaf build — the data SelectCoordinators
	// ranks coordinator candidates by. Probed eagerly with the rest of
	// characterization: a couple of LAN ping-pongs per node is noise
	// next to the signature sweeps, and Headroom is part of the
	// planner's published characterization.
	for _, lf := range topo.Leaves() {
		rates, _ := fetch(pl.sv, rootSpan, recHeadroom, fmt.Sprintf("%s|%d", profileKey(lf.Profile), lf.Nodes),
			func() ([]float64, error) { return probeHeadroom(lf.Profile, lf.Nodes, opt), nil })
		pl.Headroom = append(pl.Headroom, rates)
	}

	// Model tree mirroring the topology, with per-tier WAN curves
	// measured on minimal instances of the grid.
	root, err := pl.buildModelTree(topo, 0, sigs, rootSpan)
	if err != nil {
		return nil, err
	}
	gm := model.GridModel{Root: root}
	if err := gm.Validate(); err != nil {
		return nil, err
	}

	// Contention-factor curves: per-tier γ_wan from flat probes at every
	// probe size, innermost tiers first, then the strategy factors ω
	// and κ on the whole tree, probed under the default (lowest-rank)
	// plan. Those are whole-topology fits, keyed apart from the per-tier
	// records ("S|" prefix; the post-selection refit uses "R|"). A reused
	// fit does not probe, so the build records no omega/kappa ProbeStats
	// or overlap warnings — the cached analogue of a shared tier fit.
	if err := pl.fitTierGammas(topo, root, rootSpan); err != nil {
		return nil, err
	}
	strat, err := fetch(pl.sv, rootSpan, recStrategy, "S|"+pl.key, func() (storedStrategy, error) {
		sp := rootSpan.Span("planner.fit_strategy", obs.Int("probe_cap", probeCap))
		defer sp.End()
		probeModel := model.GridModel{Root: cappedModel(root, probeCap)}
		return pl.probeStrategyFactors(sp, "characterize", cappedTree(topo, probeCap), probeModel, nil)
	})
	if err != nil {
		return nil, err
	}
	gm.OverlapGamma, gm.GatherGamma = strat.Omega, strat.Kappa
	// A build that mixed hits and misses is an incremental re-fit: it
	// re-probed only the records the store lacked (e.g. one invalidated
	// tier) and reused every other cached curve.
	pl.sv.noteRefit(rootSpan)
	pl.Model = gm
	return pl, nil
}

// LeafFit is one network's Section 7 characterization: Hockney
// parameters, the All-to-All sweep at n′ and the signature fitted to it.
type LeafFit struct {
	Hockney   model.Hockney
	Samples   []signature.Sample
	Signature model.Signature
	Report    signature.Report
}

// FitLeaf runs the paper's Section 7 procedure on one network: a
// ping-pong calibrates Hockney, then an alg All-to-All sweep over
// FitSizes at n′ = FitN (point i: the mean of Reps runs after one
// warmup, seeded Seed + 101·i) fits the signature. It reads FitN,
// FitSizes, Reps, Seed, Workers and Trace, defaulted and validated as
// NewPlanner does. If only the signature fit fails, Hockney and Samples
// are still set.
func FitLeaf(p cluster.Profile, alg coll.Algorithm, opt Options) (LeafFit, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return LeafFit{}, err
	}
	return fitLeaf(p, alg, opt, opt.Trace.Span)
}

// fitLeaf is FitLeaf on validated options, under a "planner.leaf_fit"
// span opened by span. The per-size sweep simulations are independent
// (each builds its own cluster and Simulator from a size-indexed seed),
// so they fan out across the worker pool; events are emitted by this
// goroutine afterwards, in size order, so traces stay deterministic.
func fitLeaf(p cluster.Profile, alg coll.Algorithm, opt Options, span func(string, ...obs.Attr) *obs.Span) (LeafFit, error) {
	sp := span("planner.leaf_fit", obs.Str("profile", p.Name), obs.Int("fit_n", opt.FitN))
	defer sp.End()
	lf := LeafFit{
		Hockney: calib.PingPong(p, mpi.Config{}, opt.Seed, calib.PingPongConfig{Reps: 3}),
		Samples: make([]signature.Sample, len(opt.FitSizes)),
	}
	parallelDo(opt.Workers, len(opt.FitSizes), func(i int) {
		m := opt.FitSizes[i]
		cl := cluster.Build(p, opt.FitN, opt.Seed+int64(i)*101)
		t := measureEnv(opt.Trace, CtrProbes, cl, 1, opt.Reps, func(r *mpi.Rank) {
			coll.Alltoall(r, m, alg)
		})
		lf.Samples[i] = signature.Sample{M: m, T: t}
	})
	for _, s := range lf.Samples {
		sp.Event("fit.sample", obs.Int("size", s.M), obs.F64("t_s", s.T))
	}
	var err error
	lf.Signature, lf.Report, err = signature.Fit(lf.Hockney, opt.FitN, lf.Samples, signature.Options{})
	if err != nil {
		return lf, fmt.Errorf("grid: fitting %s: %w", p.Name, err)
	}
	return lf, nil
}

// buildModelTree mirrors the topology into model nodes, measuring each
// tier's WAN transfer curve as it goes. base is the global leaf index
// of the subtree's first leaf and sigs holds every leaf's signature in
// tree order. Structurally identical tiers share one measurement (the
// probe path never leaves the subtree, so isomorphic subtrees measure
// the same curve).
func (pl *Planner) buildModelTree(t cluster.TopoNode, base int, sigs []model.Signature, tsp *obs.Span) (*model.ModelNode, error) {
	if t.IsLeaf() {
		return model.LeafNode(t.Nodes, sigs[base]), nil
	}
	v := &model.ModelNode{}
	off := base
	for _, c := range t.Children {
		cm, err := pl.buildModelTree(c, off, sigs, tsp)
		if err != nil {
			return nil, err
		}
		v.Children = append(v.Children, cm)
		off += c.NumLeaves()
	}
	rec, err := fetch(pl.sv, tsp, recTier, topoKey(t), func() (storedTier, error) {
		// Probe between the first leaf of the tier's first child and the
		// first leaf of its second child: their paths diverge at this tier.
		return characterizeTier(pl.Topo, t, base, base+t.Children[0].NumLeaves(), pl.opt, tsp)
	})
	if err != nil {
		return nil, err
	}
	// The record carries the measured curve only; Gamma stays the
	// identity curve until fitTierGammas fits (or restores) it.
	v.Wan = model.WANModel{Curve: rec.Curve, BetaWire: rec.BetaWire}
	return v, nil
}

// characterizeTier measures the one-way transfer curve of tier `node`:
// a ping-pong between ranks a and b (leaves whose paths diverge at the
// tier) on a minimal (one node per cluster) instance of the full
// topology — the same wires, routers and transport tuning as the real
// deployment, so slow-start and window effects land in the curve — and
// derives the wire-rate serialization floor from the tier's link rate.
// Each tier probes a freshly built mini grid on purpose: sharing one
// warm world across tiers would let one probe's transport state (warmed
// congestion windows on shared access links) bleed into the next
// tier's curve.
func characterizeTier(full cluster.TopoNode, node cluster.TopoNode, a, b int, opt Options, parent *obs.Span) (storedTier, error) {
	sp := parent.Span("tier.characterize",
		obs.Str("tier", node.Name), obs.Int("height", node.Height()),
		obs.Int("rank_a", a), obs.Int("rank_b", b))
	defer sp.End()
	mini := cappedTree(full, 1)
	g, err := cluster.BuildGridTree(mini, opt.Seed+31)
	if err != nil {
		return storedTier{}, err
	}
	g.Env.Net.AttachCollector(opt.Trace)
	applySimConfig(g, opt.simCfg())
	times := make(map[int][]float64, len(opt.WANSizes))
	w := mpi.NewWorld(g.Env)
	w.Run(func(r *mpi.Rank) {
		if r.ID() != a && r.ID() != b {
			return
		}
		for _, m := range opt.WANSizes {
			if ts := warmPingPong(r, a, b, tagWANProbe, m, opt.Reps); r.ID() == a {
				times[m] = ts
			}
		}
	})
	addRunCounters(opt.Trace, CtrProbes, g.Env)
	curve := make([]model.WANPoint, 0, len(opt.WANSizes))
	for _, m := range opt.WANSizes {
		ts := times[m]
		if len(ts) == 0 {
			return storedTier{}, fmt.Errorf("grid: WAN probe produced no samples for %d bytes", m)
		}
		mean := 0.0
		for rep, t := range ts {
			sp.Event("probe.wan", obs.Int("size", m), obs.Int("rep", rep), obs.F64("t_s", t))
			mean += t
		}
		mean /= float64(len(ts))
		sp.Event("wan.point", obs.Int("size", m), obs.F64("t_s", mean))
		curve = append(curve, model.WANPoint{Bytes: m, T: mean})
	}
	return storedTier{
		Curve: curve,
		// The serialization floor uses the tier's own subtree profile:
		// framing overhead may differ between branches of a mixed grid.
		BetaWire: wireGap(node.Leaves()[0].Profile, node.WAN.Rate),
	}, nil
}

// profileKey renders a profile value as a cache key: every field
// explicitly, strings quoted, slices element-wise. A reflective
// rendering (%+v) is fragile here — it neither quotes strings (a crafted
// Name could imitate field boundaries) nor pins a format for future
// field types (maps iterate in random order, floats round) — and a key
// collision would silently share one characterization between members
// that need separate fits. When cluster.Profile (or its transport
// configs) grows a field, extend this key; the collision regression
// test enumerates fields to catch omissions.
func profileKey(p cluster.Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%q kind=%d link=%d/%d edge=%d/%t leaves=%d/%d up=%d/%d core=%d rx=%d/%d",
		p.Name, p.Kind, p.LinkRate, p.LinkLatency, p.PortBuffer, p.Lossless,
		p.Leaves, p.NodesPerLeaf, p.UplinkRate, p.UplinkLatency, p.CorePortBuffer,
		p.RxCostBase, p.RxCostPerConn)
	b.WriteString(" rates=[")
	for i, r := range p.NodeLinkRates {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	fmt.Fprintf(&b, "] tcp={%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d}",
		p.TCP.MSS, p.TCP.HeaderSize, p.TCP.AckSize, p.TCP.RcvWindow, p.TCP.InitCwnd,
		p.TCP.RTOMin, p.TCP.RTOMax, p.TCP.TxQueueLimit, p.TCP.DelAckTimeout, p.TCP.AckJitter,
		p.TCP.MaxRetries)
	fmt.Fprintf(&b, " gm={%d,%d}", p.GM.MTU, p.GM.HeaderSize)
	// Only a non-default threshold is rendered, so keys (and stores)
	// written before the field existed stay valid.
	if e := p.Eager(); e != cluster.DefaultEagerThreshold {
		fmt.Fprintf(&b, " eager=%d", e)
	}
	return b.String()
}

// wanKey renders a WAN tier's parameters for topoKey, field-wise like
// profileKey.
func wanKey(w cluster.WANConfig) string {
	return fmt.Sprintf("rate=%d lat=%d buf=%d proc=%d mesh=%t",
		w.Rate, w.Latency, w.PortBuffer, w.ProcDelay, w.Mesh)
}

// topoKey renders a subtree as a canonical string: profile and node
// count at leaves, WAN parameters and child keys at groups. Used to
// cache contention-factor fits across structurally identical subtrees;
// node Names are informational and deliberately excluded, so sibling
// tiers that differ only in their generated names share one fit.
func topoKey(t cluster.TopoNode) string {
	if t.IsLeaf() {
		return fmt.Sprintf("L{%s|%d}", profileKey(t.Profile), t.Nodes)
	}
	key := fmt.Sprintf("G{%s|", wanKey(t.WAN))
	for _, c := range t.Children {
		key += topoKey(c) + ","
	}
	return key + "}"
}

// cappedTree copies a topology with every leaf capped to at most `cap`
// nodes (cap < 1 means uncapped).
func cappedTree(t cluster.TopoNode, cap int) cluster.TopoNode {
	if t.IsLeaf() {
		if cap >= 1 && t.Nodes > cap {
			t.Nodes = cap
		}
		return t
	}
	children := make([]cluster.TopoNode, len(t.Children))
	for i, c := range t.Children {
		children[i] = cappedTree(c, cap)
	}
	t.Children = children
	return t
}

// cappedModel clones a model subtree with leaf sizes matching
// cappedTree(topo, cap).
func cappedModel(v *model.ModelNode, cap int) *model.ModelNode {
	if v.IsLeaf() {
		size := v.Size
		if cap >= 1 && size > cap {
			size = cap
		}
		return model.LeafNode(size, v.LAN)
	}
	out := &model.ModelNode{Wan: v.Wan}
	for _, c := range v.Children {
		out.Children = append(out.Children, cappedModel(c, cap))
	}
	return out
}

// wireGap returns a WAN link's per-byte serialization gap including
// framing overhead. Grids are TCP-only (BuildGridTree enforces it).
func wireGap(p cluster.Profile, rate int64) float64 {
	tcp := transport.DefaultTCPConfig()
	mss, hdr := tcp.MSS, tcp.HeaderSize
	if p.TCP.MSS > 0 {
		mss = p.TCP.MSS
	}
	if p.TCP.HeaderSize > 0 {
		hdr = p.TCP.HeaderSize
	}
	return float64(mss+hdr) / float64(mss) / float64(rate)
}

// clampGamma bounds a fitted contention factor.
func clampGamma(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 50 {
		return 50
	}
	return v
}

// invertFactor solves strategy s's decomposition of the probe model
// (model.Parts) for the factor that reproduces the measured completion
// time of a regular All-to-All at per-pair size m; a decomposition
// without a factor-scaled leg fits the identity. The probe models stay
// untraced on purpose — inversion would otherwise flood the trace with
// internal lookups.
func invertFactor(probeModel model.GridModel, m int, s Strategy, measured float64) float64 {
	p := probeModel.Parts(coll.Uniform(coll.KindAlltoall, m), s)
	if p.Scaled <= 0 {
		return 1
	}
	return clampGamma((measured - p.A - p.B) / p.Scaled)
}

// factorSweep is one contention-factor curve's fit: a probe per
// Options.ProbeSizes entry, each inverted for one curve point. The
// factor curves (γ_wan per tier, ω, κ, the per-kind corrections) differ
// only in what run simulates and what invert solves for.
type factorSweep struct {
	// factor, tier and stage label the sweep's ProbeStats and events.
	factor, tier, stage string
	// seed is the base of the probes' seed schedule (probeSeeds).
	seed int64
	// run simulates the probe at per-pair size m under one seed; it must
	// be safe to call concurrently (see probeRun).
	run func(m int, seed int64) (float64, error)
	// invert turns the median completion time at size m into the factor.
	invert func(m int, median float64) float64
	// probes holds the finished probe of each size, for folds that read
	// across sweeps (checkOverlap); curve is the fitted result.
	probes []*probeRun
	points []model.FactorPoint
	curve  model.FactorCurve
}

// sweepFactors fits each sweep's curve. All sweeps' probes at all
// sizes run as one batch on the worker pool (each seed builds its own
// grid and Simulator); the results are then folded on this goroutine
// size by size, sweeps in argument order — recordProbe, invert,
// fit.point — with afterSize (optional) closing each size, so events,
// ProbeStats and Warnings are bit-identical to sequential runs. Both the
// initial fits and the post-selection refits go through here, so the
// statistic and seed schedule cannot drift apart.
func (pl *Planner) sweepFactors(sp *obs.Span, afterSize func(i, m int), sweeps ...*factorSweep) error {
	opt := pl.opt
	var batch []*probeRun
	for _, m := range opt.ProbeSizes {
		for _, sw := range sweeps {
			m, sw := m, sw
			pr := &probeRun{baseSeed: sw.seed, run: func(sd int64) (float64, error) { return sw.run(m, sd) }}
			sw.probes = append(sw.probes, pr)
			batch = append(batch, pr)
		}
	}
	runProbes(opt.Workers, opt.StableSpread, batch)

	for i, m := range opt.ProbeSizes {
		for _, sw := range sweeps {
			pr := sw.probes[i]
			if pr.err != nil {
				return pr.err
			}
			pl.recordProbe(sp, sw.factor, sw.tier, sw.stage, m, sw.seed, pr.times)
			f := sw.invert(m, pr.median)
			sp.Event("fit.point", obs.Str("factor", sw.factor), obs.Int("size", m), obs.F64("value", f))
			sw.points = append(sw.points, model.FactorPoint{Bytes: m, Factor: f})
		}
		if afterSize != nil {
			afterSize(i, m)
		}
	}
	for _, sw := range sweeps {
		sw.curve = model.CurveOf(sw.points...)
	}
	return nil
}

// fitTierGammas fits every tier's flat-exchange contention-factor
// curve γ_wan, innermost tiers first: each tier is probed with capped
// flat exchanges at every probe size, and the model decomposition —
// whose inner tiers already carry their fitted curves — is inverted
// for the tier's residual inflation per size. Structurally identical
// subtrees share one fit; a reused fit does not probe, so it records no
// span or samples.
func (pl *Planner) fitTierGammas(topo cluster.TopoNode, mod *model.ModelNode, parent *obs.Span) (err error) {
	if topo.IsLeaf() {
		return nil
	}
	for i := range topo.Children {
		if err := pl.fitTierGammas(topo.Children[i], mod.Children[i], parent); err != nil {
			return err
		}
	}
	// Fits are keyed by the tier's uncapped structure — the same key the
	// tier's WAN curve uses — so CurveStore.Invalidate's substring rule
	// covers the γ fit along with the curve. The probe simulations below
	// run on the capped tree, so tiers identical when capped but not
	// uncapped fit identical values from separate (deterministic) probes
	// instead of sharing one record.
	mod.Wan.Gamma, err = fetch(pl.sv, parent, recGamma, topoKey(topo), func() (model.FactorCurve, error) {
		sp := parent.Span("tier.fit_gamma", obs.Str("tier", topo.Name), obs.Int("height", topo.Height()))
		defer sp.End()
		probeTopo := cappedTree(topo, probeCap)
		probeModel := model.GridModel{Root: cappedModel(mod, probeCap)}
		sw := &factorSweep{
			factor: "gamma_wan", tier: topo.Name, stage: "characterize", seed: pl.opt.Seed + 53,
			run: func(m int, sd int64) (float64, error) {
				return pl.opt.probe(probeTopo, coll.Uniform(coll.KindAlltoall, m), FlatDirect, nil, sd)
			},
			invert: func(m int, median float64) float64 { return invertFactor(probeModel, m, FlatDirect, median) },
		}
		err := pl.sweepFactors(sp, nil, sw)
		return sw.curve, err
	})
	return err
}

// probeStrategyFactors runs the two hierarchical strategies of one fit
// stage ("characterize", or "refit" with the selected spec) on the
// capped probe grid at every probe size and inverts probeModel's
// decompositions for the factor curves the analytics cannot supply —
// the grid analogue of fitting γ at a modest n′ and extrapolating,
// extended along the size axis:
//
//	ω  hier-direct: WAN-leg inflation from overlapped LAN traffic
//	κ  hier-gather: coordinator-incast inflation of the synchronized
//	   gather/scatter phases
//
// Each probe's per-seed dispersion lands in pl.ProbeStats, and sizes
// where the two strategies' per-seed supports overlap are flagged in
// pl.Warnings (see ProbeWarning).
func (pl *Planner) probeStrategyFactors(sp *obs.Span, stage string, probeTopo cluster.TopoNode, probeModel model.GridModel, spec *coll.TreeSpec) (storedStrategy, error) {
	sweepOf := func(factor string, seedOff int64, s Strategy) *factorSweep {
		return &factorSweep{
			factor: factor, stage: stage, seed: pl.opt.Seed + seedOff,
			run: func(m int, sd int64) (float64, error) {
				return pl.opt.probe(probeTopo, coll.Uniform(coll.KindAlltoall, m), s, spec, sd)
			},
			invert: func(m int, median float64) float64 { return invertFactor(probeModel, m, s, median) },
		}
	}
	hd, hg := sweepOf("omega", 71, HierDirect), sweepOf("kappa", 89, HierGather)
	err := pl.sweepFactors(sp, func(i, m int) {
		pl.checkOverlap(sp, stage, m, hd.probes[i].times, hg.probes[i].times)
	}, hd, hg)
	return storedStrategy{Omega: hd.curve, Kappa: hg.curve}, err
}

// Prediction is one strategy's predicted completion time.
type Prediction struct {
	Strategy Strategy
	T        float64 // seconds
}

// predict is the one prediction core behind Predict, PredictV and
// PredictKind: every candidate strategy of the workload's kind priced
// through the model (which receives the planner's trace collector),
// sorted fastest first. Kinds other than All-to-All(v) scale their
// hierarchical prediction by the kind's lazily calibrated correction
// curve — the only step that can fail. A workload that does not fit the
// topology is a programming error here and panics with
// coll.Workload.Validate's message; the entry points that accept
// external input validate and return it instead.
func (pl *Planner) predict(w coll.Workload) ([]Prediction, error) {
	var correction model.FactorCurve
	if w.Kind != coll.KindAlltoall && w.Kind != coll.KindAlltoallv {
		var err error
		if correction, err = pl.kindFactor(w.Kind); err != nil {
			return nil, err
		}
	}
	strategies := StrategiesFor(w.Kind)
	out := make([]Prediction, len(strategies))
	for i, s := range strategies {
		t := pl.Model.Predict(w, s, pl.opt.Trace)
		if s != FlatDirect && !correction.IsZero() {
			t *= correction.At(w.M)
		}
		out[i] = Prediction{s, t}
	}
	// Stable insertion sort: at most three entries, and ties keep the
	// Strategies order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].T < out[j-1].T; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// first returns the fastest of a sorted prediction list.
func first(preds []Prediction, err error) (Prediction, error) {
	if err != nil {
		return Prediction{}, err
	}
	return preds[0], nil
}

// Predict returns every strategy's predicted completion time for an
// All-to-All of per-pair message size m, sorted fastest first.
func (pl *Planner) Predict(m int) []Prediction {
	out, _ := pl.predict(coll.Uniform(coll.KindAlltoall, m)) // All-to-All fits no correction: no error
	return out
}

// Best returns the predicted-fastest strategy for message size m.
func (pl *Planner) Best(m int) Prediction { return pl.Predict(m)[0] }

// PredictV returns every strategy's predicted completion time for an
// irregular total exchange with per-pair byte counts sz, sorted fastest
// first: each tier's WAN leg is priced by the matrix's actual
// cross-subtree cut instead of n·m (the model's matrix volume source).
// Uniform matrices reduce to Predict bit-identically. The matrix ranks
// must match the planner's topology (contiguous leaf blocks in tree
// order, as BuildGridTree assigns them) — a mismatch panics, a
// programming error like Predict on a foreign model; the APIs that
// accept external input (Service, SelectCoordinatorsV, Run) validate
// and return errors instead.
func (pl *Planner) PredictV(sz coll.SizeMatrix) []Prediction {
	out, _ := pl.predict(coll.Irregular(sz)) // as Predict: no error path
	return out
}

// BestV returns the predicted-fastest strategy for the size matrix sz.
func (pl *Planner) BestV(sz coll.SizeMatrix) Prediction { return pl.PredictV(sz)[0] }
