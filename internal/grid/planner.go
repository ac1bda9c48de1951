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
	// draws (see probeTypical).
	ProbeSizes []int
	// ProbeSize is the per-pair message size of the per-node headroom
	// ping-pongs (default 64 KiB; the probe transfers 4× this).
	ProbeSize int
	// ProbeCap caps per-cluster node counts in probe grids (default 4):
	// large enough that uplink sharing and LAN/WAN overlap interference
	// show up, small enough to stay affordable.
	ProbeCap int
	// MaxCoords caps how many coordinators SelectCoordinators may split
	// one leaf's relay across (default 2).
	MaxCoords int
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
	if o.ProbeSize == 0 {
		o.ProbeSize = 64 << 10
	}
	if o.ProbeCap == 0 {
		o.ProbeCap = 4
	}
	if o.MaxCoords == 0 {
		o.MaxCoords = 2
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
// parameters). Called by NewPlanner after defaults are applied, so a
// zero Options always passes.
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
	if o.ProbeSize <= 0 {
		return fmt.Errorf("grid: ProbeSize %d is not positive", o.ProbeSize)
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
		o.FitN, o.FitSizes, o.WANSizes, o.ProbeSizes, o.ProbeSize, o.ProbeCap,
		o.MaxCoords, o.Reps, o.Seed, o.StableSpread)
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
// run over, in execution order (probeTypical keeps the median of the
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
	// sv is the build's window onto the optional CurveStore (always
	// non-nil; inert without a store). Kept on the planner so the
	// post-selection refit (coords.go) shares the same cache and
	// hit/miss accounting as the initial characterization.
	sv *storeView
	// kindGamma caches the per-kind hierarchical correction curves,
	// fitted lazily on the first PredictKind of each kind (kinds.go).
	// kindMu guards it; All-to-All never takes an entry.
	kindMu    sync.Mutex
	kindGamma map[coll.Kind]model.FactorCurve
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
// curves — is looked up in the store before probing and written back
// after, with store.hit/store.miss events and counters per record kind
// (so planner.probes stays the cache-regression signal: a fully warm
// store builds a planner with zero probe simulations). A nil store
// degrades to today's NewPlanner exactly. The simulations behind every
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

	pl := &Planner{Topo: topo, opt: opt, sv: newStoreView(st, opt.Trace),
		kindGamma: map[coll.Kind]model.FactorCurve{}}
	rootSpan := opt.Trace.Span("planner.characterize",
		obs.Str("topo", topo.Name), obs.Int("leaves", topo.NumLeaves()),
		obs.Int("nodes", topo.TotalNodes()))
	defer rootSpan.End()

	// Leaf characterization: ping-pong Hockney plus the paper's
	// signature fit, cached on the full profile value (members sharing a
	// name but not tuning must not share a fit).
	type charac struct {
		h   model.Hockney
		sig model.Signature
	}
	cache := map[string]charac{}
	for _, lf := range topo.Leaves() {
		p := lf.Profile
		if _, ok := cache[profileKey(p)]; ok {
			continue
		}
		if rec, ok := pl.sv.leaf(rootSpan, profileKey(p)); ok {
			cache[profileKey(p)] = charac{h: rec.Hockney, sig: rec.Signature}
			continue
		}
		sp := rootSpan.Span("planner.leaf_fit", obs.Str("profile", p.Name), obs.Int("fit_n", opt.FitN))
		h := calib.PingPong(p, mpi.Config{}, opt.Seed, calib.PingPongConfig{Reps: 3})
		// The per-size sweep simulations are independent (each builds
		// its own cluster and Simulator from a size-indexed seed), so
		// they fan out across the worker pool; events are emitted by
		// this goroutine afterwards, in size order, so traces stay
		// deterministic.
		times := make([]float64, len(opt.FitSizes))
		parallelDo(opt.Workers, len(opt.FitSizes), func(i int) {
			m := opt.FitSizes[i]
			cl := cluster.Build(p, opt.FitN, opt.Seed+int64(i)*101)
			times[i] = measureEnv(opt.Trace, CtrProbes, cl, 1, opt.Reps, func(r *mpi.Rank) {
				coll.Alltoall(r, m, coll.PostAll)
			})
		})
		samples := make([]signature.Sample, 0, len(opt.FitSizes))
		for i, m := range opt.FitSizes {
			sp.Event("fit.sample", obs.Int("size", m), obs.F64("t_s", times[i]))
			samples = append(samples, signature.Sample{M: m, T: times[i]})
		}
		sig, _, err := signature.Fit(h, opt.FitN, samples, signature.Options{})
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("grid: fitting %s: %w", p.Name, err)
		}
		sp.End()
		cache[profileKey(p)] = charac{h: h, sig: sig}
		pl.sv.putLeaf(profileKey(p), storedLeaf{Hockney: h, Signature: sig})
	}
	for _, lf := range topo.Leaves() {
		pl.Hockney = append(pl.Hockney, cache[profileKey(lf.Profile)].h)
	}

	// Per-node uplink headroom, probed once per distinct (profile, size)
	// member on a standalone leaf build — the data SelectCoordinators
	// ranks coordinator candidates by. Probed eagerly with the rest of
	// characterization: a couple of LAN ping-pongs per node is noise
	// next to the signature sweeps, and Headroom is part of the
	// planner's published characterization.
	hrCache := map[string][]float64{}
	for _, lf := range topo.Leaves() {
		key := fmt.Sprintf("%s|%d", profileKey(lf.Profile), lf.Nodes)
		rates, ok := hrCache[key]
		if !ok {
			if stored, hit := pl.sv.headroom(rootSpan, key); hit {
				rates = stored
			} else {
				rates = probeHeadroom(lf.Profile, lf.Nodes, opt)
				pl.sv.putHeadroom(key, rates)
			}
			hrCache[key] = rates
		}
		pl.Headroom = append(pl.Headroom, rates)
	}

	// Model tree mirroring the topology, with per-tier WAN curves
	// measured on minimal instances of the grid. Structurally identical
	// tiers share one measured curve through the cache.
	curves := map[string]model.WANModel{}
	root, err := buildModelTree(topo, 0, func(p cluster.Profile) model.Signature { return cache[profileKey(p)].sig }, topo, curves, opt, pl.sv, rootSpan)
	if err != nil {
		return nil, err
	}
	gm := model.GridModel{Root: root}
	if err := gm.Validate(); err != nil {
		return nil, err
	}

	// Contention-factor curves: per-tier γ_wan from flat probes at every
	// probe size, innermost tiers first, then the strategy factors ω
	// and κ on the whole tree.
	fitted := map[string]model.FactorCurve{}
	if err := pl.fitTierGammas(topo, root, fitted, rootSpan); err != nil {
		return nil, err
	}
	omega, kappa, err := pl.fitStrategyFactors(topo, gm, rootSpan)
	if err != nil {
		return nil, err
	}
	gm.OverlapGamma = omega
	gm.GatherGamma = kappa
	// A build that mixed hits and misses is an incremental re-fit: it
	// re-probed only the records the store lacked (e.g. one invalidated
	// tier) and reused every other cached curve.
	pl.sv.noteRefit(rootSpan)
	pl.Model = gm
	return pl, nil
}

// buildModelTree mirrors the topology into model nodes, measuring each
// tier's WAN transfer curve as it goes. base is the global leaf index
// of the subtree's first leaf; curves caches measurements across
// structurally identical tiers (the probe path never leaves the
// subtree, so isomorphic subtrees measure the same curve).
func buildModelTree(t cluster.TopoNode, base int, sigOf func(cluster.Profile) model.Signature, full cluster.TopoNode, curves map[string]model.WANModel, opt Options, sv *storeView, tsp *obs.Span) (*model.ModelNode, error) {
	if t.IsLeaf() {
		return model.LeafNode(t.Nodes, sigOf(t.Profile)), nil
	}
	v := &model.ModelNode{}
	off := base
	for _, c := range t.Children {
		cm, err := buildModelTree(c, off, sigOf, full, curves, opt, sv, tsp)
		if err != nil {
			return nil, err
		}
		v.Children = append(v.Children, cm)
		off += c.NumLeaves()
	}
	key := topoKey(t)
	if wan, ok := curves[key]; ok {
		v.Wan = wan
		return v, nil
	}
	if rec, ok := sv.tier(tsp, key); ok {
		// The stored record carries the measured curve only; Gamma stays
		// the identity curve until fitTierGammas fits (or restores) it,
		// exactly as after a fresh characterizeTier.
		wan := model.WANModel{Curve: rec.Curve, BetaWire: rec.BetaWire}
		curves[key] = wan
		v.Wan = wan
		return v, nil
	}
	// Probe between the first leaf of the tier's first child and the
	// first leaf of its second child: their paths diverge at this tier.
	wan, err := characterizeTier(full, t, base, base+t.Children[0].NumLeaves(), opt, tsp)
	if err != nil {
		return nil, err
	}
	curves[key] = wan
	sv.putTier(key, storedTier{Curve: wan.Curve, BetaWire: wan.BetaWire})
	v.Wan = wan
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
func characterizeTier(full cluster.TopoNode, node cluster.TopoNode, a, b int, opt Options, parent *obs.Span) (model.WANModel, error) {
	sp := parent.Span("tier.characterize",
		obs.Str("tier", node.Name), obs.Int("height", node.Height()),
		obs.Int("rank_a", a), obs.Int("rank_b", b))
	defer sp.End()
	mini := cappedTree(full, 1)
	g, err := cluster.BuildGridTree(mini, opt.Seed+31)
	if err != nil {
		return model.WANModel{}, err
	}
	g.Env.Net.AttachCollector(opt.Trace)
	applySimConfig(g, opt.simCfg())
	// Sort and deduplicate defensively (validate already rejects sweeps
	// with < 2 distinct sizes): duplicate sizes would measure curve
	// points with equal Bytes, whose zero-width segments Transfer can
	// only skip, not interpolate.
	sizes := sortedDistinct(opt.WANSizes)
	times := make(map[int][]float64, len(sizes))
	w := mpi.NewWorld(g.Env, mpi.Config{})
	w.Run(func(r *mpi.Rank) {
		if r.ID() != a && r.ID() != b {
			return
		}
		for _, m := range sizes {
			// One unmeasured repetition warms the congestion window,
			// matching the warmed-up conditions of measured exchanges.
			for rep := 0; rep <= opt.Reps; rep++ {
				if r.ID() == a {
					t0 := r.Now()
					r.Send(b, tagWANProbe, m)
					r.Recv(b, tagWANProbe)
					if rep > 0 {
						times[m] = append(times[m], (r.Now()-t0).Seconds()/2)
					}
				} else {
					r.Recv(a, tagWANProbe)
					r.Send(a, tagWANProbe, m)
				}
			}
		}
	})
	addRunCounters(opt.Trace, CtrProbes, g.Env)
	curve := make([]model.WANPoint, 0, len(sizes))
	for _, m := range sizes {
		ts := times[m]
		if len(ts) == 0 {
			return model.WANModel{}, fmt.Errorf("grid: WAN probe produced no samples for %d bytes", m)
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
	return model.WANModel{
		Curve: curve,
		// The serialization floor uses the tier's own subtree profile:
		// framing overhead may differ between branches of a mixed grid.
		BetaWire: wireGap(node.Leaves()[0].Profile, node.WAN.Rate),
		// Gamma stays the identity curve until fitTierGammas fits it.
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

// probeTypical runs one probe simulation (the closure) over a
// stop-when-stable seed schedule and keeps the median run. Completion
// times on lossy WANs are heavy-tailed upward — a single
// retransmission timeout adds whole RTO periods — so a mean bakes one
// seed's tail draw into every prediction, while a minimum discards the
// systematic loss recovery the factors exist to price (an incast's
// "lucky" run dodges the very losses κ summarizes). The median is
// robust against both.
//
// Sampling is adaptive on the per-seed dispersion signal: the first
// probeSeedsInitial seeds always run; if their spread (max−min)
// exceeds stableSpread × median — the same overlap-prone dispersion
// probe.unstable warns about — the remaining probeSeeds run too
// (bounded at five) and the median widens to all samples. Stable
// probes pay three simulations, seed-lottery ones five.
//
// Both the initial fits and the post-selection refits
// (internal/grid/coords.go) share this one harness, so
// the statistic and seed schedule cannot drift apart. The raw per-seed
// times come back in probeSeeds order for dispersion diagnostics
// (recordProbe); given the same baseSeed and closure behavior, the
// samples and median are identical in any process.
func probeTypical(baseSeed int64, stableSpread float64, run func(seed int64) (float64, error)) (float64, []float64, error) {
	seeds := probeSeeds(baseSeed)
	times := make([]float64, 0, len(seeds))
	for _, sd := range seeds[:probeSeedsInitial] {
		one, err := run(sd)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, one)
	}
	if lo, med, hi := dispersion(times); med > 0 && hi-lo > stableSpread*med {
		for _, sd := range seeds[probeSeedsInitial:] {
			one, err := run(sd)
			if err != nil {
				return 0, nil, err
			}
			times = append(times, one)
		}
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2], times, nil
}

// fitTierGammas fits every tier's flat-exchange contention-factor
// curve γ_wan, innermost tiers first: each tier is probed with capped
// flat exchanges at every probe size, and the model decomposition —
// whose inner tiers already carry their fitted curves — is inverted
// for the tier's residual inflation per size. Structurally identical
// subtrees share one fit through the cache; a cache hit reuses the fit
// without probing, so cached tiers record no span or samples.
func (pl *Planner) fitTierGammas(topo cluster.TopoNode, mod *model.ModelNode, cache map[string]model.FactorCurve, parent *obs.Span) error {
	opt := pl.opt
	if topo.IsLeaf() {
		return nil
	}
	for i := range topo.Children {
		if err := pl.fitTierGammas(topo.Children[i], mod.Children[i], cache, parent); err != nil {
			return err
		}
	}
	probeTopo := cappedTree(topo, opt.ProbeCap)
	// Fits are keyed by the tier's uncapped structure — the same key the
	// tier's WAN curve uses — so CurveStore.Invalidate's substring rule
	// covers the γ fit along with the curve. The probe simulations below
	// run on the capped tree, so tiers identical when capped but not
	// uncapped fit identical values from separate (deterministic) probes
	// instead of sharing one cache entry.
	key := topoKey(topo)
	if gamma, ok := cache[key]; ok {
		mod.Wan.Gamma = gamma
		return nil
	}
	if gamma, ok := pl.sv.gamma(parent, key); ok {
		cache[key] = gamma
		mod.Wan.Gamma = gamma
		return nil
	}
	sp := parent.Span("tier.fit_gamma", obs.Str("tier", topo.Name), obs.Int("height", topo.Height()))
	defer sp.End()
	probeModel := model.GridModel{Root: cappedModel(mod, opt.ProbeCap)}
	// Per-size probes are independent (each seed builds its own grid
	// and Simulator), so the whole (size × seed) batch fans out across
	// the worker pool; recordProbe/fit.point events follow in size
	// order from this goroutine, bit-identical to sequential runs.
	probes := make([]*probeRun, len(opt.ProbeSizes))
	for i, p := range opt.ProbeSizes {
		m := p
		probes[i] = &probeRun{baseSeed: opt.Seed + 53, run: func(sd int64) (float64, error) {
			return opt.probe(probeTopo, coll.Uniform(coll.KindAlltoall, m), FlatDirect, nil, sd)
		}}
	}
	runProbes(opt.Workers, opt.StableSpread, probes)
	points := make([]model.FactorPoint, 0, len(opt.ProbeSizes))
	for i, p := range opt.ProbeSizes {
		pr := probes[i]
		if pr.err != nil {
			return pr.err
		}
		pl.recordProbe(sp, "gamma_wan", topo.Name, "characterize", p, opt.Seed+53, pr.times)
		gamma := invertFactor(probeModel, p, FlatDirect, pr.median)
		sp.Event("fit.point", obs.Str("factor", "gamma_wan"), obs.Int("size", p), obs.F64("value", gamma))
		points = append(points, model.FactorPoint{Bytes: p, Factor: gamma})
	}
	curve := model.CurveOf(points...)
	mod.Wan.Gamma = curve
	cache[key] = curve
	pl.sv.putGamma(key, curve)
	return nil
}

// fitStrategyFactors runs the two hierarchical strategies on a capped
// probe grid at every probe size and inverts the model decompositions
// for the factor curves the analytics cannot supply — the grid
// analogue of fitting γ at a modest n′ and extrapolating, extended
// along the size axis:
//
//	ω  hier-direct: WAN-leg inflation from overlapped LAN traffic
//	κ  hier-gather: coordinator-incast inflation of the synchronized
//	   gather/scatter phases
//
// Each probe's per-seed dispersion lands in pl.ProbeStats, and sizes
// where the two strategies' per-seed supports overlap are flagged in
// pl.Warnings (see ProbeWarning).
func (pl *Planner) fitStrategyFactors(topo cluster.TopoNode, gm model.GridModel, parent *obs.Span) (omega, kappa model.FactorCurve, err error) {
	opt := pl.opt
	// Strategy factors are whole-topology fits, keyed apart from the
	// per-tier records ("S|" prefix; the post-selection refit uses "R|").
	// A hit restores the fitted curves without probing, so the build
	// records no omega/kappa ProbeStats or overlap warnings — the cached
	// analogue of a shared tier fit.
	skey := "S|" + topoKey(topo)
	if rec, ok := pl.sv.strategy(parent, skey); ok {
		return rec.Omega, rec.Kappa, nil
	}
	probeTopo := cappedTree(topo, opt.ProbeCap)
	probeModel := model.GridModel{Root: cappedModel(gm.Root, opt.ProbeCap)}
	sp := parent.Span("planner.fit_strategy", obs.Int("probe_cap", opt.ProbeCap))
	defer sp.End()

	omega, kappa, err = pl.probeStrategyFactors(sp, "characterize", probeTopo, probeModel, nil)
	if err != nil {
		return model.FactorCurve{}, model.FactorCurve{}, err
	}
	pl.sv.putStrategy(skey, storedStrategy{Omega: omega, Kappa: kappa})
	return omega, kappa, nil
}

// probeStrategyFactors runs the ω (hier-direct) and κ (hier-gather)
// probes of one fit stage ("characterize", or "refit" with the selected
// spec) on the capped probe grid and inverts probeModel's
// decompositions for one factor point per probe size. Both strategies ×
// all sizes fan out as one probe batch; results are then folded in the
// sequential order (per size: ω probe, κ probe, overlap check) so
// events, ProbeStats and Warnings are bit-identical to sequential runs.
func (pl *Planner) probeStrategyFactors(sp *obs.Span, stage string, probeTopo cluster.TopoNode, probeModel model.GridModel, spec *coll.TreeSpec) (omega, kappa model.FactorCurve, err error) {
	opt := pl.opt
	hdProbes := make([]*probeRun, len(opt.ProbeSizes))
	hgProbes := make([]*probeRun, len(opt.ProbeSizes))
	batch := make([]*probeRun, 0, 2*len(opt.ProbeSizes))
	for i, p := range opt.ProbeSizes {
		w := coll.Uniform(coll.KindAlltoall, p)
		hdProbes[i] = &probeRun{baseSeed: opt.Seed + 71, run: func(sd int64) (float64, error) {
			return opt.probe(probeTopo, w, HierDirect, spec, sd)
		}}
		hgProbes[i] = &probeRun{baseSeed: opt.Seed + 89, run: func(sd int64) (float64, error) {
			return opt.probe(probeTopo, w, HierGather, spec, sd)
		}}
		batch = append(batch, hdProbes[i], hgProbes[i])
	}
	runProbes(opt.Workers, opt.StableSpread, batch)

	var omegaPts, kappaPts []model.FactorPoint
	for i, p := range opt.ProbeSizes {
		hd, hg := hdProbes[i], hgProbes[i]
		if hd.err != nil {
			return model.FactorCurve{}, model.FactorCurve{}, hd.err
		}
		pl.recordProbe(sp, "omega", "", stage, p, opt.Seed+71, hd.times)
		o := invertFactor(probeModel, p, HierDirect, hd.median)
		sp.Event("fit.point", obs.Str("factor", "omega"), obs.Int("size", p), obs.F64("value", o))
		omegaPts = append(omegaPts, model.FactorPoint{Bytes: p, Factor: o})

		if hg.err != nil {
			return model.FactorCurve{}, model.FactorCurve{}, hg.err
		}
		pl.recordProbe(sp, "kappa", "", stage, p, opt.Seed+89, hg.times)
		k := invertFactor(probeModel, p, HierGather, hg.median)
		sp.Event("fit.point", obs.Str("factor", "kappa"), obs.Int("size", p), obs.F64("value", k))
		kappaPts = append(kappaPts, model.FactorPoint{Bytes: p, Factor: k})

		pl.checkOverlap(sp, stage, p, hd.times, hg.times)
	}
	return model.CurveOf(omegaPts...), model.CurveOf(kappaPts...), nil
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
