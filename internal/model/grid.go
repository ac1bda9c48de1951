package model

import (
	"fmt"

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

// TransferShared predicts `flows` concurrent flows of bytesPerFlow each
// through one uplink: each flow is individually curve-limited (they ramp
// in parallel), while their aggregate serializes at the wire rate.
func (w WANModel) TransferShared(flows, bytesPerFlow int) float64 {
	if flows <= 0 || bytesPerFlow <= 0 {
		return 0
	}
	perFlow := w.Transfer(bytesPerFlow)
	wire := w.Alpha() + float64(flows)*float64(bytesPerFlow)*w.BetaWire
	if wire > perFlow {
		return wire
	}
	return perFlow
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

	// InnerCoordSet marks a group tier whose coordinator was chosen
	// explicitly (planner coordinator selection at an inner tier rather
	// than the first-child default). The upward incast into that tier's
	// coordinator then behaves like the leaf gather's synchronized
	// incast and is κ-charged with GatherGamma; false (the default)
	// leaves the leg at its analytic serialization, reproducing the
	// pre-selection model bit-identically.
	InnerCoordSet bool
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

// GroupNode returns a group model node joining children through a tier.
func GroupNode(wan WANModel, children ...*ModelNode) *ModelNode {
	return &ModelNode{Children: children, Wan: wan}
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

// GridModel predicts All-to-All completion times on a multi-level grid:
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
	// CombineBeta prices reduction arithmetic in seconds per combined
	// byte for the reducing kinds (Reduce, Allreduce, Reduce-scatter).
	// Zero — the default — keeps combining free, as the simulator and
	// the paper's models assume; All-to-All predictions never read it.
	CombineBeta float64
	// Obs, when non-nil, receives one factor.lookup event per
	// contention-curve read a prediction performs — which fitted
	// FactorCurve points the lookup interpolated, at what effective
	// size, and the resulting factor. Nil (the default) disables
	// tracing; predictions then pay only nil checks. The planner
	// installs its Options.Trace collector here.
	Obs *obs.Collector
}

// emitLookup records one factor-curve read: the curve's role, the tier
// height it belongs to (−1 for the strategy-level ω/κ factors), the
// effective per-pair size looked up, the clamped factor, and the fitted
// neighbor points the interpolation read. Callers guard with
// g.Obs != nil so disabled predictions skip the Lookup re-derivation.
func (g GridModel) emitLookup(curve string, height int, c FactorCurve, bytes int) {
	f, lo, hi := c.Lookup(bytes)
	if f < 1 {
		f = 1
	}
	g.Obs.Event("factor.lookup",
		obs.Str("curve", curve), obs.Int("tier_height", height),
		obs.Int("size", bytes), obs.F64("factor", f),
		obs.Int("lo_bytes", lo.Bytes), obs.F64("lo_factor", lo.Factor),
		obs.Int("hi_bytes", hi.Bytes), obs.F64("hi_factor", hi.Factor))
}

// emitFlatLookups records the per-tier γ_wan reads of a flat
// prediction, one event per group tier in tree order.
func (g GridModel) emitFlatLookups(m int) {
	var walk func(v *ModelNode)
	walk = func(v *ModelNode) {
		if v.IsLeaf() {
			return
		}
		g.emitLookup("gamma_wan", v.Height(), v.Wan.Gamma, m)
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(g.Root)
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

// intra returns the worst per-cluster intra-exchange time: each cluster
// runs a local All-to-All among its own ranks, predicted by its
// contention signature.
func (g GridModel) intra(m int) float64 {
	worst := 0.0
	for _, lf := range g.Leaves() {
		if t := lf.LAN.Predict(lf.Size, m); t > worst {
			worst = t
		}
	}
	return worst
}

// FlatParts decomposes the flat-exchange prediction for the worst leaf
// cluster: `fixed` is the local LAN term plus the γ-weighted WAN terms
// of every tier below the root (already fitted when the root is being
// calibrated bottom-up), `startup` the per-round WAN start-ups across
// all tiers, and `rootWan` the root tier's transfer term — the one the
// root's Gamma multiplies. Planner calibration inverts this
// decomposition to fit each tier's Gamma from a probe measurement,
// innermost tiers first.
func (g GridModel) FlatParts(m int) (fixed, startup, rootWan float64) {
	worst := -1.0
	var walkLeaf func(lf *ModelNode, ancestors []*ModelNode, childAt []*ModelNode)
	walkLeaf = func(lf *ModelNode, ancestors []*ModelNode, childAt []*ModelNode) {
		clan := lf.LAN.Predict(lf.Size, m)
		cfixed, cstart, croot := clan, 0.0, 0.0
		for i, a := range ancestors {
			c := childAt[i]
			lcaCount := a.TotalNodes() - c.TotalNodes()
			if lcaCount == 0 {
				continue
			}
			flows := c.TotalNodes() * lcaCount
			cstart += float64(lcaCount) * a.Wan.Alpha()
			wan := a.Wan.TransferShared(flows, m) - a.Wan.Alpha()
			if a == g.Root {
				croot = wan
			} else {
				cfixed += wan * gammaAt(a.Wan.Gamma, m)
			}
		}
		if t := cfixed + cstart + croot; t > worst {
			worst, fixed, startup, rootWan = t, cfixed, cstart, croot
		}
	}
	var walk func(v *ModelNode, ancestors, childAt []*ModelNode)
	walk = func(v *ModelNode, ancestors, childAt []*ModelNode) {
		if v.IsLeaf() {
			walkLeaf(v, ancestors, childAt)
			return
		}
		for _, c := range v.Children {
			// Ancestors are ordered outermost-first; childAt[i] is the
			// child of ancestors[i] the leaf sits under.
			walk(c, append(append([]*ModelNode(nil), ancestors...), v),
				append(append([]*ModelNode(nil), childAt...), c))
		}
	}
	walk(g.Root, nil, nil)
	return fixed, startup, rootWan
}

// PredictFlat models the flat direct exchange: intra-cluster traffic
// behaves per the local signature, every rank pays the start-up of each
// of its remote rounds at the tier where the pair diverges, and each
// tier's crossing volume serializes through its shared uplinks inflated
// by that tier's fitted contention factor.
func (g GridModel) PredictFlat(m int) float64 {
	if g.TotalNodes() <= 1 {
		return 0
	}
	fixed, startup, rootWan := g.FlatParts(m)
	gamma := 1.0
	if !g.Root.IsLeaf() {
		gamma = gammaAt(g.Root.Wan.Gamma, m)
	}
	if g.Obs != nil {
		g.emitFlatLookups(m)
	}
	return fixed + startup + rootWan*gamma
}

// exchangeAt returns the worst-child time of the aggregated coordinator
// exchange at group tier v: one message per sibling pair, posted
// concurrently; per-flow curve limit vs aggregate wire limit. When a
// leaf child carries measured coordinator headroom (CoordBeta > 0), its
// outbound aggregate is additionally floored by serialization through
// the chosen coordinator ports — the headroom asymmetry term: a slow
// coordinator NIC bounds the whole aggregated exchange, and a C-way
// split spreads the aggregate over C ports.
func (g GridModel) exchangeAt(v *ModelNode, m int) float64 {
	worst := 0.0
	for _, c := range v.Children {
		maxPer, total := 0, 0
		for _, d := range v.Children {
			if d != c {
				b := c.TotalNodes() * d.TotalNodes() * m
				total += b
				if b > maxPer {
					maxPer = b
				}
			}
		}
		if total == 0 {
			continue
		}
		perFlow := v.Wan.Transfer(maxPer)
		wire := v.Wan.Alpha() + float64(total)*v.Wan.BetaWire
		t := perFlow
		if wire > t {
			t = wire
		}
		if c.IsLeaf() && c.CoordBeta > 0 {
			port := v.Wan.Alpha() + float64(total)/float64(c.coordSplit())*c.CoordBeta
			if port > t {
				t = port
			}
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// collectAt returns the incast time of the upward gather into tier v's
// coordinator (or, symmetrically, the downward scatter from it): every
// child except the coordinator's own forwards its subtree's
// outside-bound volume across tier v's links. Zero at the root, which
// has no outside.
func (g GridModel) collectAt(v *ModelNode, m int, outsideN int) float64 {
	if outsideN == 0 || len(v.Children) < 2 {
		return 0
	}
	maxPer, total := 0, 0
	for i, c := range v.Children {
		if i == 0 {
			continue // the first child hosts the tier coordinator
		}
		b := c.TotalNodes() * outsideN * m
		total += b
		if b > maxPer {
			maxPer = b
		}
	}
	if total == 0 {
		return 0
	}
	perFlow := v.Wan.Transfer(maxPer)
	wire := v.Wan.Alpha() + float64(total)*v.Wan.BetaWire
	if wire > perFlow {
		return wire
	}
	return perFlow
}

// tierLegs sums the WAN legs of the hierarchical relay over the tree:
// per height, the worst group's exchange plus upward gather (tiers at
// one height run concurrently, different heights sequentially), and per
// depth, the worst group's downward scatter. Both sums are zero on
// two-level grids' inner structure — exchange at the root is the only
// crossing — which is exactly PR 1's model.
func (g GridModel) tierLegs(m int) (xchg, scatter float64) {
	n := g.TotalNodes()
	byHeight := map[int]float64{}
	byDepth := map[int]float64{}
	var walk func(v *ModelNode, depth int)
	walk = func(v *ModelNode, depth int) {
		if v.IsLeaf() {
			return
		}
		for _, c := range v.Children {
			walk(c, depth+1)
		}
		out := n - v.TotalNodes()
		incast := g.collectAt(v, m, out)
		if v.InnerCoordSet {
			// An explicitly-chosen inner-tier coordinator synchronizes
			// its children's forwards into a genuine incast on its port,
			// like the leaf gather: κ-charge the leg (satellite of the
			// collective-suite refactor; default coords keep the
			// analytic serialization bit-identically).
			incast *= gammaAt(g.GatherGamma, m)
		}
		if t := g.exchangeAt(v, m) + incast; t > byHeight[v.Height()] {
			byHeight[v.Height()] = t
		}
		if depth > 0 && incast > byDepth[depth] {
			byDepth[depth] = incast
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

// leafLocal returns the worst leaf's gather (equivalently scatter) leg:
// s−1 local transfers of a rank's remote-bound volume, serialized at
// the coordinator NIC. With C coordinators the volume partitions by
// divergence target, so each of the C concurrent incasts moves a 1/C
// share per member — the C-way split of the κ-priced term. Measured
// coordinator headroom (CoordBeta) replaces the nominal LAN gap when
// present; both default to the pre-selection model.
func (g GridModel) leafLocal(m int) float64 {
	n := g.TotalNodes()
	worst := 0.0
	for _, lf := range g.Leaves() {
		s := lf.Size
		if s <= 1 || n == s {
			continue
		}
		h := lf.LAN.H
		beta := h.Beta
		if lf.CoordBeta > 0 {
			beta = lf.CoordBeta
		}
		c := float64(lf.coordSplit())
		if t := float64(s-1) * (h.Alpha + float64((n-s)*m)*beta/c); t > worst {
			worst = t
		}
	}
	return worst
}

// HierGatherParts decomposes the sequential hierarchical algorithm: the
// intra-cluster exchange, the summed per-tier WAN legs (exchange,
// upward gather, downward scatter), and the combined local leaf
// gather+scatter legs that GatherGamma multiplies (the synchronized
// coordinator incast; planner calibration inverts this decomposition).
func (g GridModel) HierGatherParts(m int) (intra, xchg, local float64) {
	tx, ts := g.tierLegs(m)
	return g.intra(m), tx + ts, 2 * g.leafLocal(m)
}

// PredictHierGather models the sequential hierarchical algorithm: the
// intra-cluster exchange and the per-tier relay sweeps run back to back.
func (g GridModel) PredictHierGather(m int) float64 {
	if g.TotalNodes() <= 1 {
		return 0
	}
	intra, xchg, local := g.HierGatherParts(m)
	if g.Obs != nil {
		g.emitLookup("kappa", -1, g.GatherGamma, m)
	}
	return intra + xchg + local*gammaAt(g.GatherGamma, m)
}

// HierDirectParts decomposes the overlapped algorithm's prediction. Its
// opening phase pushes the intra-cluster exchange and the gathers into
// the LAN at once, so each cluster behaves like a local All-to-All with
// the per-pair volume inflated to the rank's full outbound data,
// (n−1)·m/(s−1) — the local contention signature then prices the
// overlap, which is exactly what makes overlap a loss on high-γ
// networks. The relay follows, its summed WAN exchange legs being
// dependency-ordered behind the gathers; OverlapGamma multiplies those
// legs (planner calibration inverts this decomposition to fit it), and
// the scatter legs (per-tier plus leaf-local) close the plan.
func (g GridModel) HierDirectParts(m int) (phase0, xchg, scatter float64) {
	n := g.TotalNodes()
	for _, lf := range g.Leaves() {
		s := lf.Size
		if s <= 1 {
			continue
		}
		inflated := (n - 1) * m / (s - 1)
		if t := lf.LAN.Predict(s, inflated); t > phase0 {
			phase0 = t
		}
	}
	tx, ts := g.tierLegs(m)
	return phase0, tx, ts + g.leafLocal(m)
}

// PredictHierDirect models the overlapped hierarchical algorithm.
func (g GridModel) PredictHierDirect(m int) float64 {
	if g.TotalNodes() <= 1 {
		return 0
	}
	phase0, xchg, scatter := g.HierDirectParts(m)
	if g.Obs != nil {
		g.emitLookup("omega", -1, g.OverlapGamma, m)
	}
	return phase0 + xchg*gammaAt(g.OverlapGamma, m) + scatter
}
