package model

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/obs"
)

// Grid extension of the contention model: the paper's single-cluster
// signature T(n,m) = (n−1)(α+mβ)γ [+ (n−1)δ] composes with per-level
// WAN terms into completion-time predictions for All-to-All over a
// multi-level grid — a recursive tree of clusters joined by WAN tiers
// (campus → national → continental). Three strategies are modeled:
//
//   - flat direct exchange, where every inter-cluster block is its own
//     message through the shared WAN uplinks of every tier it crosses;
//   - hierarchical gather / per-tier coordinator exchange / scatter
//     (sequential phases);
//   - hierarchical direct (intra-cluster exchange overlapped with the
//     coordinator relay).
//
// The WAN terms follow the paper's methodology rather than first
// principles: each tier's path is characterized empirically by a
// ping-pong transfer-time curve (which automatically captures
// propagation, router forwarding, transport slow-start and the per-flow
// window cap over a long-fat pipe), and the flat exchange's
// loss-recovery chaos on each tier's shared uplink buffers is summarized
// by a fitted per-level contention factor γ_wan, exactly as γ summarizes
// it inside a cluster. Predictions sum per-level transfer-curve
// contributions: traffic whose endpoints diverge at tier t is charged to
// tier t's curve (which, being measured end to end, already includes the
// lower tiers it transits).

// WANPoint is one measured point of a WAN transfer curve.
type WANPoint struct {
	Bytes int
	T     float64 // one-way transfer time (s)
}

// WANModel describes the wide-area paths of one grid tier: the curve
// between two subtrees joined at that tier.
type WANModel struct {
	// Curve is the measured one-way transfer-time curve of a single
	// flow, ascending in Bytes. Queries interpolate linearly and
	// extrapolate with the terminal slope (the steady window- or
	// wire-limited gap).
	Curve []WANPoint
	// BetaWire is the inverse uplink rate in s/B including framing
	// overhead: the serialization floor shared by all concurrent flows.
	BetaWire float64
	// Gamma is the per-level contention factor charged to the flat
	// exchange's uncoordinated flows on this tier's shared uplinks
	// (≥ 1 after clamping), fitted from small probe grids like the paper
	// fits γ at n' — a size-indexed FactorCurve, looked up at the
	// per-flow message size crossing the tier. A single-point curve
	// (ScalarFactor) reproduces the scalar-factor model bit-identically.
	Gamma FactorCurve
}

// gammaAt looks a contention-factor curve up at a per-pair size and
// clamps the result to ≥ 1: a fitted factor below 1 (probe noise) must
// never discount a leg below its analytic serialization.
func gammaAt(c FactorCurve, bytes int) float64 {
	g := c.At(bytes)
	if g < 1 {
		return 1
	}
	return g
}

// Alpha returns the WAN start-up: the smallest measured transfer time.
func (w WANModel) Alpha() float64 {
	if len(w.Curve) == 0 {
		return 0
	}
	return w.Curve[0].T
}

// BetaSteady returns the terminal slope of the curve: the steady
// per-byte gap of one established flow.
func (w WANModel) BetaSteady() float64 {
	if len(w.Curve) < 2 {
		return w.BetaWire
	}
	a, b := w.Curve[len(w.Curve)-2], w.Curve[len(w.Curve)-1]
	if b.Bytes <= a.Bytes {
		return w.BetaWire
	}
	slope := (b.T - a.T) / float64(b.Bytes-a.Bytes)
	if slope < w.BetaWire {
		slope = w.BetaWire
	}
	return slope
}

// Transfer predicts one flow moving `bytes` one way across the tier by
// interpolating the measured curve.
func (w WANModel) Transfer(bytes int) float64 {
	if bytes <= 0 || len(w.Curve) == 0 {
		return 0
	}
	c := w.Curve
	if bytes <= c[0].Bytes {
		return c[0].T
	}
	for i := 1; i < len(c); i++ {
		if bytes <= c[i].Bytes {
			if c[i].Bytes <= c[i-1].Bytes {
				// Zero-width segment (duplicate probe sizes on a
				// hand-built curve): interpolating would divide by zero
				// and spray NaN into every prediction; take the
				// segment's later measurement instead.
				return c[i].T
			}
			frac := float64(bytes-c[i-1].Bytes) / float64(c[i].Bytes-c[i-1].Bytes)
			return c[i-1].T + frac*(c[i].T-c[i-1].T)
		}
	}
	last := c[len(c)-1]
	return last.T + float64(bytes-last.Bytes)*w.BetaSteady()
}

// leg prices one WAN leg of concurrent flows through a tier's shared
// uplink — the arithmetic every exchange, incast and flat crossing
// shares: the flows ramp in parallel, each limited by the measured curve
// at the largest single message (maxPer), while their aggregate (total
// bytes) serializes at the wire rate. When port is a leaf child carrying
// measured coordinator headroom (CoordBeta > 0), the leg is additionally
// floored by serialization through the chosen coordinator ports — the
// headroom asymmetry term: a slow coordinator NIC bounds the whole
// aggregated exchange, and a C-way split spreads the aggregate over C
// ports. An empty leg costs nothing.
func (w WANModel) leg(maxPer, total int, port *ModelNode) float64 {
	if total <= 0 {
		return 0
	}
	t := w.Transfer(maxPer)
	if wire := w.Alpha() + float64(total)*w.BetaWire; wire > t {
		t = wire
	}
	if port != nil && port.IsLeaf() && port.CoordBeta > 0 {
		if p := w.Alpha() + float64(total)/float64(port.coordSplit())*port.CoordBeta; p > t {
			t = p
		}
	}
	return t
}

// TransferShared predicts `flows` concurrent flows of bytesPerFlow each
// through one uplink: each flow is individually curve-limited (they ramp
// in parallel), while their aggregate serializes at the wire rate.
func (w WANModel) TransferShared(flows, bytesPerFlow int) float64 {
	if flows <= 0 || bytesPerFlow <= 0 {
		return 0
	}
	return w.leg(bytesPerFlow, flows*bytesPerFlow, nil)
}

// ModelNode is one node of a grid model tree, mirroring the topology
// tree the predictions are for. Exactly one form is populated:
//
//   - leaf: Size nodes whose local network obeys the contention
//     signature LAN;
//   - group: Children joined by a WAN tier modeled by Wan.
type ModelNode struct {
	// Size and LAN describe a leaf cluster.
	Size int
	LAN  Signature

	// NumCoords is the number of coordinators the hierarchical relay
	// splits this leaf's gather/scatter across (coordinator selection,
	// internal/grid). Zero or one is the single-coordinator default:
	// the κ-priced incast lands on one NIC port. With C > 1 the incast
	// volume divides across C ports (see docs/MODEL.md §4).
	NumCoords int
	// CoordBeta is the measured per-byte gap (s/B) of the slowest
	// chosen coordinator's NIC — the uplink headroom asymmetry term.
	// Zero means no headroom data: the local legs fall back to the LAN
	// signature's β and no coordinator-port floor is added to the tier
	// exchange, reproducing the pre-selection model exactly.
	CoordBeta float64

	// Children and Wan describe a group tier.
	Children []*ModelNode
	Wan      WANModel
}

// coordSplit returns the leaf's effective coordinator count, clamped to
// its size.
func (v *ModelNode) coordSplit() int {
	c := v.NumCoords
	if c < 1 {
		c = 1
	}
	if c > v.Size {
		c = v.Size
	}
	return c
}

// LeafNode returns a leaf model node.
func LeafNode(size int, lan Signature) *ModelNode {
	return &ModelNode{Size: size, LAN: lan}
}

// IsLeaf reports whether the node is a leaf cluster.
func (v *ModelNode) IsLeaf() bool { return len(v.Children) == 0 }

// TotalNodes sums leaf sizes over the subtree.
func (v *ModelNode) TotalNodes() int {
	if v.IsLeaf() {
		return v.Size
	}
	n := 0
	for _, c := range v.Children {
		n += c.TotalNodes()
	}
	return n
}

// Height returns the number of WAN tiers above the deepest leaf of the
// subtree (0 for a leaf).
func (v *ModelNode) Height() int {
	h := 0
	for _, c := range v.Children {
		if ch := c.Height() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// Leaves returns the subtree's leaves in tree order.
func (v *ModelNode) Leaves() []*ModelNode {
	if v.IsLeaf() {
		return []*ModelNode{v}
	}
	var out []*ModelNode
	for _, c := range v.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Strategy is one candidate execution strategy of a collective on a
// grid.
type Strategy int

const (
	// FlatDirect runs the paper's Algorithm 1 (or the kind's flat kernel)
	// over the whole grid, ignoring topology.
	FlatDirect Strategy = iota
	// HierGather runs coll.HierGather (sequential gather / per-tier
	// coordinator exchange / scatter).
	HierGather
	// HierDirect runs coll.HierDirect (intra-cluster exchange
	// overlapped with the coordinator relay).
	HierDirect
)

// String names the strategy as used in experiment output.
func (s Strategy) String() string {
	switch s {
	case FlatDirect:
		return "flat-direct"
	case HierGather:
		return "hier-gather"
	case HierDirect:
		return "hier-direct"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// GridModel predicts collective completion times on a multi-level grid:
// per-cluster contention signatures at the leaves, one WAN model (curve
// plus per-level contention factor) per tier above them.
type GridModel struct {
	// Root is the model tree. A lone leaf degenerates to the paper's
	// single-cluster signature prediction.
	Root *ModelNode
	// OverlapGamma inflates the hier-direct WAN exchange legs (≥ 1
	// after clamping): with the intra-cluster exchange still churning
	// the LAN, inbound WAN packets get dropped at the edge and the
	// wide-area flows pay loss recovery. Fitted from probe grids at the
	// planner's probe sizes, like the per-level Wan.Gamma — a
	// size-indexed FactorCurve looked up at the exchange's effective
	// per-pair size; values < 1 are treated as 1, and a single-point
	// curve reproduces the scalar factor bit-identically.
	OverlapGamma FactorCurve
	// GatherGamma inflates the hier-gather gather and scatter legs
	// (≥ 1 after clamping): the strict phase structure synchronizes the
	// s−1 local flows into a coordinator-port incast whose loss
	// recovery the plain serialization term misses. Fitted from probe
	// grids, size-indexed like OverlapGamma.
	GatherGamma FactorCurve
}

// emitLookup records one factor-curve read on tr: the curve's role, the
// tier height it belongs to (−1 for the strategy-level ω/κ factors), the
// effective per-pair size looked up, the clamped factor, and the fitted
// neighbor points the interpolation read. Callers guard with tr != nil
// so untraced predictions skip the Lookup re-derivation.
func emitLookup(tr *obs.Collector, curve string, height int, c FactorCurve, bytes int) {
	f, lo, hi := c.Lookup(bytes)
	if f < 1 {
		f = 1
	}
	tr.Event("factor.lookup",
		obs.Str("curve", curve), obs.Int("tier_height", height),
		obs.Int("size", bytes), obs.F64("factor", f),
		obs.Int("lo_bytes", lo.Bytes), obs.F64("lo_factor", lo.Factor),
		obs.Int("hi_bytes", hi.Bytes), obs.F64("hi_factor", hi.Factor))
}

// emitFlatLookups records the per-tier γ_wan reads of a uniform flat
// prediction, one event per group tier in tree order.
func emitFlatLookups(tr *obs.Collector, v *ModelNode, m int) {
	if v.IsLeaf() {
		return
	}
	emitLookup(tr, "gamma_wan", v.Height(), v.Wan.Gamma, m)
	for _, c := range v.Children {
		emitFlatLookups(tr, c, m)
	}
}

// Validate checks structural consistency.
func (g GridModel) Validate() error {
	if g.Root == nil {
		return fmt.Errorf("model: grid with no topology")
	}
	var walk func(v *ModelNode) error
	walk = func(v *ModelNode) error {
		if v.IsLeaf() {
			if v.Size < 1 {
				return fmt.Errorf("model: leaf cluster has %d nodes", v.Size)
			}
			return nil
		}
		if v.Size != 0 {
			return fmt.Errorf("model: group node sets Size")
		}
		for _, c := range v.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(g.Root)
}

// TotalNodes sums cluster sizes.
func (g GridModel) TotalNodes() int { return g.Root.TotalNodes() }

// Leaves returns the model's leaf clusters in tree order.
func (g GridModel) Leaves() []*ModelNode { return g.Root.Leaves() }

// Predict returns the predicted completion time of workload w under
// strategy s — the model's one prediction entry; kind, size and
// regular-vs-irregular are fields of w, not method names. Every kind is
// priced from the same fitted ingredients (per-tier transfer curves and
// γ_wan, ω, κ, coordinator-port headroom); what changes with the
// workload is only the byte volume each leg carries, read from one
// volume source (volumes.go):
//
//   - All-to-All(v): FlatDirect is the flat direct exchange — intra-
//     cluster traffic behaves per the local signature, every rank pays
//     the start-up of each of its remote rounds at the tier where the
//     pair diverges, and each tier's crossing volume serializes through
//     its shared uplinks inflated by that tier's fitted contention
//     factor. HierGather runs the intra-cluster exchange and the
//     per-tier relay sweeps back to back; HierDirect overlaps them (see
//     Parts). An irregular exchange prices every leg by the size
//     matrix's actual cut and looks each factor curve up at the leg's
//     effective per-flow size; a uniform matrix is priced as the regular
//     All-to-All at its per-pair size, bit-identically.
//   - Allgather and Reduce-scatter ride the All-to-All relay structure
//     with deduplicated per-leg volumes (kinds.go); Broadcast, Reduce
//     and Allreduce relay one payload per hop of the delegate tree.
//     Their plans are structurally identical under both hierarchical
//     algorithm variants, so every non-flat strategy prices the one
//     hierarchical plan, and FlatDirect prices the kind's flat kernel.
//
// A workload that moves no bytes (M = 0, an all-zero matrix) and a grid
// of at most one node predict 0. tr, when non-nil, receives one
// factor.lookup event per strategy-level contention-curve read — which
// fitted FactorCurve points the lookup interpolated, at what effective
// size, and the resulting factor; nil predictions pay only nil checks.
// A workload that fails coll.Workload.Validate for the grid's rank count
// is a programming error and panics with Validate's message.
func (g GridModel) Predict(w coll.Workload, s Strategy, tr *obs.Collector) float64 {
	src, m := g.volumesOf(w)
	if src == nil && m == 0 || g.TotalNodes() <= 1 {
		return 0
	}
	switch {
	case w.Kind == coll.KindAlltoall || w.Kind == coll.KindAlltoallv:
		return g.predictExchange(src, m, s, tr)
	case s == FlatDirect:
		return g.flatKernel(w.Kind, w.M)
	case w.Kind == coll.KindAllgather || w.Kind == coll.KindReduceScatter:
		// The weighted relay sums its legs one by one; the fitted
		// per-kind correction curves were inverted against this order.
		leaves := g.Leaves()
		xchg, scatter := g.tierLegs(src)
		up, down, _ := g.leafLegs(src, leaves)
		if tr != nil {
			emitLookup(tr, "kappa", -1, g.GatherGamma, w.M)
		}
		return intra(src, leaves) + xchg + scatter + (up+down)*gammaAt(g.GatherGamma, w.M)
	default:
		return g.rootedHier(w.Kind, w.M, tr)
	}
}

// predictExchange sums an All-to-All(v) decomposition with the
// strategy's fitted factor read at the legs' effective size, or at the
// uniform per-pair size m when the exchange has one (m > 0).
func (g GridModel) predictExchange(src volumes, m int, s Strategy, tr *obs.Collector) float64 {
	p, size := g.parts(src, s)
	uniform := m > 0
	if uniform {
		// A uniform exchange reads every curve at m itself, also on grids
		// whose singleton leaves leave no leg to derive a size from.
		size = m
	}
	switch s {
	case FlatDirect:
		f := 1.0
		if !g.Root.IsLeaf() {
			f = gammaAt(g.Root.Wan.Gamma, size)
		}
		// A uniform prediction reports every tier's γ_wan read, an
		// irregular one only the root's — the inner reads happen at
		// per-leaf sizes inside the decomposition.
		if tr != nil && uniform {
			emitFlatLookups(tr, g.Root, size)
		} else if tr != nil && !g.Root.IsLeaf() {
			emitLookup(tr, "gamma_wan", g.Root.Height(), g.Root.Wan.Gamma, size)
		}
		return p.A + p.B + p.Scaled*f
	case HierGather:
		if tr != nil {
			emitLookup(tr, "kappa", -1, g.GatherGamma, size)
		}
		return p.A + p.B + p.Scaled*gammaAt(g.GatherGamma, size)
	default:
		if tr != nil {
			emitLookup(tr, "omega", -1, g.OverlapGamma, size)
		}
		return p.A + p.Scaled*gammaAt(g.OverlapGamma, size) + p.B
	}
}

// Parts splits an All-to-All(v) prediction around the one leg its
// strategy's fitted factor f multiplies; planner calibration inverts it
// for f = (T − A − B) / Scaled from a probe measurement T.
//
//	strategy    A       B        Scaled   f           prediction
//	FlatDirect  fixed   startup  rootWan  root γ_wan  (A + B) + Scaled·f
//	HierGather  intra   xchg     local    κ           (A + B) + Scaled·f
//	HierDirect  phase0  scatter  xchg     ω           (A + Scaled·f) + B
//
// FlatDirect decomposes the worst leaf cluster: fixed is the local LAN
// term plus the γ-weighted WAN terms of every tier below the root
// (already fitted when the root is being calibrated bottom-up), startup
// the per-round WAN start-ups across all tiers (only rounds that carry
// bytes in either direction), and rootWan the root tier's transfer term.
//
// HierGather: the intra-cluster exchange, the summed per-tier WAN legs
// (exchange, upward gather, downward scatter), and the combined local
// leaf gather+scatter legs — the synchronized coordinator incast.
//
// HierDirect: its opening phase pushes the intra-cluster exchange and
// the gathers into the LAN at once, so each cluster behaves like a local
// All-to-All with the per-pair volume inflated to the worst rank's full
// outbound data spread over its s−1 local partners — the local
// contention signature then prices the overlap, which is exactly what
// makes overlap a loss on high-γ networks. The relay follows, its summed
// WAN exchange legs being dependency-ordered behind the gathers, and the
// scatter legs (per-tier plus leaf-local) close the plan.
type Parts struct{ A, B, Scaled float64 }

// Parts returns strategy s's decomposition of an All-to-All(v)
// workload. A workload that moves no bytes decomposes to zeros.
func (g GridModel) Parts(w coll.Workload, s Strategy) Parts {
	if w.Kind != coll.KindAlltoall && w.Kind != coll.KindAlltoallv {
		panic(fmt.Sprintf("model: no decomposition for %v", w.Kind))
	}
	src, _ := g.volumesOf(w)
	if src == nil {
		return Parts{}
	}
	p, _ := g.parts(src, s)
	return p
}

// parts is Parts over a resolved volume source, plus the effective
// per-pair size the strategy's factor curve is looked up at: the worst
// leaf's root-tier cut size (flat), the worst leaves' incast size (κ),
// or the worst leaf's local per-pair size (ω — the factor prices the
// loss recovery relay flows pay while the intra-cluster exchange churns
// the LAN, and that churn's intensity is the local exchange's per-pair
// volume: thin local blocks interfere far less than the uniform probe at
// the cross-pair size did, a hotspot's fat local rows far more).
func (g GridModel) parts(src volumes, s Strategy) (Parts, int) {
	if s == FlatDirect {
		return g.flatParts(src)
	}
	leaves := g.Leaves()
	xchg, tierScatter := g.tierLegs(src)
	gather, scatter, incast := g.leafLegs(src, leaves)
	if s == HierGather {
		return Parts{A: intra(src, leaves), B: xchg + tierScatter, Scaled: gather + scatter}, incast
	}
	phase0, churn := 0.0, 0
	for _, lf := range leaves {
		if eff, ok := src.local(lf); ok && eff > churn {
			churn = eff
		}
		if lf.Size <= 1 {
			continue
		}
		if out := src.outbound(lf); out > 0 {
			if t := lf.LAN.Predict(lf.Size, out/(lf.Size-1)); t > phase0 {
				phase0 = t
			}
		}
	}
	return Parts{A: phase0, B: tierScatter + scatter, Scaled: xchg}, churn
}

// intra returns the worst per-cluster intra-exchange time: each cluster
// runs a local All-to-All among its own ranks, predicted by its
// contention signature at its effective local per-pair size.
func intra(src volumes, leaves []*ModelNode) float64 {
	worst := 0.0
	for _, lf := range leaves {
		if eff, ok := src.local(lf); ok {
			if t := lf.LAN.Predict(lf.Size, eff); t > worst {
				worst = t
			}
		}
	}
	return worst
}

// flatParts is the flat decomposition: every leaf is priced against
// each of its ancestor tiers — start-ups for the rounds that diverge
// there, the tier's crossing cut through the leg pricer, inner tiers
// inflated by their γ_wan at the cut's effective per-flow size — and
// the worst leaf's terms are kept, with its root-tier cut size.
func (g GridModel) flatParts(src volumes) (p Parts, rootEff int) {
	worst := -1.0
	// anc holds the ancestors of the leaf being priced, outermost first;
	// under[i] is the child of anc[i] the leaf sits under.
	var anc, under []*ModelNode
	var walk func(v *ModelNode)
	walk = func(v *ModelNode) {
		if !v.IsLeaf() {
			for _, c := range v.Children {
				anc, under = append(anc, v), append(under, c)
				walk(c)
				anc, under = anc[:len(anc)-1], under[:len(under)-1]
			}
			return
		}
		fixed, startup, rootWan, eff := 0.0, 0.0, 0.0, 0
		if size, ok := src.local(v); ok {
			fixed = v.LAN.Predict(v.Size, size)
		}
		for i, a := range anc {
			startup += float64(src.rounds(v, a, under[i])) * a.Wan.Alpha()
			cut, maxPair, flows := src.cut(a, under[i])
			if cut == 0 {
				continue
			}
			wan := a.Wan.leg(maxPair, cut, nil) - a.Wan.Alpha()
			if a == g.Root {
				rootWan, eff = wan, effSize(cut, flows)
			} else {
				fixed += wan * gammaAt(a.Wan.Gamma, effSize(cut, flows))
			}
		}
		if t := fixed + startup + rootWan; t > worst {
			worst, p, rootEff = t, Parts{A: fixed, B: startup, Scaled: rootWan}, eff
		}
	}
	walk(g.Root)
	return p, rootEff
}

// tierLegs sums the WAN legs of the hierarchical relay over the tree:
// per height, the worst group's coordinator exchange plus upward gather
// (tiers at one height run concurrently, different heights
// sequentially), and per depth, the worst group's downward scatter.
// Both gather and scatter are zero at the root, which has no outside, so
// a two-level grid's only crossing is the root exchange.
func (g GridModel) tierLegs(src volumes) (xchg, scatter float64) {
	n := g.TotalNodes()
	byHeight := make([]float64, g.Root.Height()+1)
	byDepth := make([]float64, len(byHeight))
	var walk func(v *ModelNode, depth int)
	walk = func(v *ModelNode, depth int) {
		if v.IsLeaf() {
			return
		}
		for _, c := range v.Children {
			walk(c, depth+1)
		}
		up, down := 0.0, 0.0
		if v.TotalNodes() < n {
			up, down = collectAt(v, src, true), collectAt(v, src, false)
		}
		if t := exchangeAt(v, src) + up; t > byHeight[v.Height()] {
			byHeight[v.Height()] = t
		}
		if depth > 0 && down > byDepth[depth] {
			byDepth[depth] = down
		}
	}
	walk(g.Root, 0)
	for _, t := range byHeight {
		xchg += t
	}
	for _, t := range byDepth {
		scatter += t
	}
	return xchg, scatter
}

// exchangeAt returns the worst-child time of the aggregated coordinator
// exchange at group tier v: one message per ordered sibling pair, posted
// concurrently, floored by the sending child's coordinator ports.
func exchangeAt(v *ModelNode, src volumes) float64 {
	worst := 0.0
	for _, c := range v.Children {
		maxPer, total := 0, 0
		for _, d := range v.Children {
			if d != c {
				b := src.pair(c, d)
				total += b
				if b > maxPer {
					maxPer = b
				}
			}
		}
		if t := v.Wan.leg(maxPer, total, c); t > worst {
			worst = t
		}
	}
	return worst
}

// collectAt returns the incast time of the upward gather into tier v's
// coordinator (up) or the fan-out of the downward scatter from it: every
// child except the coordinator's own — the first — moves its relayed
// volume across tier v's links.
func collectAt(v *ModelNode, src volumes, up bool) float64 {
	maxPer, total := 0, 0
	for _, c := range v.Children[1:] {
		b := src.relayed(v, c, up)
		total += b
		if b > maxPer {
			maxPer = b
		}
	}
	return v.Wan.leg(maxPer, total, nil)
}

// leafLegs returns the worst leaf's local gather and scatter legs: s−1
// transfers into (out of) the coordinator set, serialized at the
// coordinator NIC. With C coordinators the volume partitions by
// divergence target, so each of the C concurrent incasts moves a 1/C
// share — the C-way split of the κ-priced term. Measured coordinator
// headroom (CoordBeta) replaces the nominal LAN gap when present; both
// default to the pre-selection model. incast is the κ lookup size: the
// worst gather leaf's and the worst scatter leaf's relayed bytes spread
// over their nonzero remote pairs.
func (g GridModel) leafLegs(src volumes, leaves []*ModelNode) (gather, scatter float64, incast int) {
	n := g.TotalNodes()
	var gb, gp, sb, sp int
	for _, lf := range leaves {
		if lf.Size <= 1 || lf.Size == n {
			continue
		}
		h := lf.LAN.H
		beta := h.Beta
		if lf.CoordBeta > 0 {
			beta = lf.CoordBeta
		}
		c := float64(lf.coordSplit())
		if t, b, p := src.leafRelay(lf, true, h.Alpha, beta, c); t > gather {
			gather, gb, gp = t, b, p
		}
		if t, b, p := src.leafRelay(lf, false, h.Alpha, beta, c); t > scatter {
			scatter, sb, sp = t, b, p
		}
	}
	return gather, scatter, effSize(gb+sb, gp+sp)
}
