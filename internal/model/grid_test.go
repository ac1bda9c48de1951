package model

import (
	"math"
	"testing"

	"repro/internal/coll"
)

// ata is the regular All-to-All workload at per-pair size m.
func ata(m int) coll.Workload { return coll.Uniform(coll.KindAlltoall, m) }

func testWan() WANModel {
	return WANModel{
		Curve: []WANPoint{
			{Bytes: 1 << 10, T: 0.020},
			{Bytes: 64 << 10, T: 0.030},
			{Bytes: 1 << 20, T: 0.180},
		},
		BetaWire: 8e-8,
		Gamma:    ScalarFactor(3),
	}
}

func TestWANTransferInterpolation(t *testing.T) {
	w := testWan()
	if got := w.Transfer(512); got != 0.020 {
		t.Fatalf("below-curve transfer = %v, want clamp to first point", got)
	}
	mid := w.Transfer((1<<10 + 64<<10) / 2)
	if mid <= 0.020 || mid >= 0.030 {
		t.Fatalf("interpolated transfer %v outside segment", mid)
	}
	// Extrapolation continues with the terminal slope.
	slope := w.BetaSteady()
	want := 0.180 + slope*float64(1<<20)
	if got := w.Transfer(2 << 20); math.Abs(got-want) > 1e-12 {
		t.Fatalf("extrapolated transfer = %v, want %v", got, want)
	}
	if w.Transfer(0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
}

func TestWANBetaSteadyFloorsAtWire(t *testing.T) {
	w := testWan()
	// Terminal curve slope here is ~1.56e-7 s/B, above the wire gap.
	if got := w.BetaSteady(); got < w.BetaWire {
		t.Fatalf("steady gap %v below wire gap %v", got, w.BetaWire)
	}
	w.BetaWire = 1e-5 // absurdly slow wire dominates
	if got := w.BetaSteady(); got != 1e-5 {
		t.Fatalf("steady gap %v, want wire floor", got)
	}
}

func TestWANTransferShared(t *testing.T) {
	w := testWan()
	one := w.TransferShared(1, 64<<10)
	if one != w.Transfer(64<<10) {
		t.Fatalf("single flow shared = %v, want plain transfer %v", one, w.Transfer(64<<10))
	}
	// Many flows: the aggregate wire serialization must take over.
	many := w.TransferShared(64, 64<<10)
	wire := w.Alpha() + 64*float64(64<<10)*w.BetaWire
	if many != wire {
		t.Fatalf("64-flow shared = %v, want wire-limited %v", many, wire)
	}
	if many <= one {
		t.Fatal("sharing must not be free")
	}
}

// groupNode returns a group model node joining children through a tier.
func groupNode(wan WANModel, children ...*ModelNode) *ModelNode {
	return &ModelNode{Children: children, Wan: wan}
}

func testSig() Signature {
	return Signature{H: Hockney{Alpha: 50e-6, Beta: 8e-9}, Gamma: 10, Delta: 0.04, M: 128 << 10}
}

func gridModelFixture() GridModel {
	sig := testSig()
	return GridModel{Root: groupNode(testWan(), LeafNode(4, sig), LeafNode(4, sig))}
}

// threeLevelFixture: 2 nations × 2 campuses of 4 nodes, a fast campus
// tier under the slow continental tier of testWan.
func threeLevelFixture() GridModel {
	sig := testSig()
	campus := WANModel{
		Curve: []WANPoint{
			{Bytes: 1 << 10, T: 0.005},
			{Bytes: 64 << 10, T: 0.008},
			{Bytes: 1 << 20, T: 0.050},
		},
		BetaWire: 4e-8,
		Gamma:    ScalarFactor(2),
	}
	nation := func() *ModelNode {
		return groupNode(campus, LeafNode(4, sig), LeafNode(4, sig))
	}
	return GridModel{Root: groupNode(testWan(), nation(), nation())}
}

func TestGridModelValidate(t *testing.T) {
	g := gridModelFixture()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := threeLevelFixture().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := GridModel{Root: groupNode(testWan(), LeafNode(4, testSig()), LeafNode(0, testSig()))}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cluster must fail validation")
	}
	if err := (GridModel{}).Validate(); err == nil {
		t.Fatal("empty grid must fail validation")
	}
	mixed := gridModelFixture()
	mixed.Root.Children[0].Size = 3 // group node with Size set
	mixed.Root.Children[0].Children = []*ModelNode{LeafNode(3, testSig())}
	if err := mixed.Validate(); err == nil {
		t.Fatal("node that is both leaf and group must fail validation")
	}
}

func TestGridPredictionsPositiveAndOrdered(t *testing.T) {
	for name, g := range map[string]GridModel{"2lvl": gridModelFixture(), "3lvl": threeLevelFixture()} {
		for _, m := range []int{4 << 10, 64 << 10, 512 << 10} {
			flat := g.Predict(ata(m), FlatDirect, nil)
			hg := g.Predict(ata(m), HierGather, nil)
			hd := g.Predict(ata(m), HierDirect, nil)
			if flat <= 0 || hg <= 0 || hd <= 0 {
				t.Fatalf("%s m=%d: nonpositive predictions flat=%v hg=%v hd=%v", name, m, flat, hg, hd)
			}
			// The WAN exchange legs are common to both hierarchical
			// variants; they differ only in how the LAN legs combine, so
			// both must exceed the bare exchange time.
			xchg := g.Parts(ata(m), HierDirect).Scaled
			if hg <= xchg || hd <= xchg {
				t.Fatalf("%s m=%d: hierarchical predictions below their WAN legs", name, m)
			}
		}
	}
}

func TestGridPredictFlatGammaScaling(t *testing.T) {
	g := gridModelFixture()
	lo := g.Predict(ata(64<<10), FlatDirect, nil)
	g.Root.Wan.Gamma = ScalarFactor(30)
	hi := g.Predict(ata(64<<10), FlatDirect, nil)
	if hi <= lo {
		t.Fatalf("raising γ_wan must raise the flat prediction (%v -> %v)", lo, hi)
	}
	p := g.Parts(ata(64<<10), FlatDirect)
	want := p.A + p.B + p.Scaled*30
	if math.Abs(hi-want) > 1e-12 {
		t.Fatalf("flat prediction = %v, want decomposition %v", hi, want)
	}
}

// TestGridDeeperTierRaisesPrediction: adding a continental tier above a
// two-level grid must never make any strategy cheaper — the extra tier
// adds start-ups and serialization.
func TestGridDeeperTierRaisesPrediction(t *testing.T) {
	g3 := threeLevelFixture()
	// A two-level model of just one nation of the 3-level fixture.
	nation := GridModel{Root: g3.Root.Children[0]}
	for _, m := range []int{16 << 10, 64 << 10} {
		if g3.Predict(ata(m), FlatDirect, nil) <= nation.Predict(ata(m), FlatDirect, nil) {
			t.Fatalf("m=%d: 3-level flat not above its single-nation sub-grid", m)
		}
		if g3.Predict(ata(m), HierGather, nil) <= nation.Predict(ata(m), HierGather, nil) {
			t.Fatalf("m=%d: 3-level hier-gather not above its single-nation sub-grid", m)
		}
	}
}

// TestGridTwoLevelMatchesClosedForm pins the depth-2 reduction: through
// the recursive tree code path, a two-level grid must reproduce the
// pre-refactor closed-form model (PR 1) exactly — worst-cluster LAN term
// plus per-round WAN start-ups plus the shared-uplink transfer term, and
// the three-phase relay for the hierarchical variants.
func TestGridTwoLevelMatchesClosedForm(t *testing.T) {
	sig := testSig()
	sizes := []int{4, 6}
	wan := testWan()
	g := GridModel{Root: groupNode(wan, LeafNode(sizes[0], sig), LeafNode(sizes[1], sig))}
	g.Root.Wan.Gamma = ScalarFactor(3)
	g.OverlapGamma = ScalarFactor(2.5)
	g.GatherGamma = ScalarFactor(1.5)
	n := 10
	for _, m := range []int{8 << 10, 64 << 10, 512 << 10} {
		// Flat: PR 1's FlatParts loop.
		worst, lan, startup, wanT := -1.0, 0.0, 0.0, 0.0
		for _, s := range sizes {
			remote := n - s
			clan := sig.Predict(s, m)
			cstart := float64(remote) * wan.Alpha()
			cwan := wan.TransferShared(s*remote, m) - wan.Alpha()
			if t := clan + cstart + cwan; t > worst {
				worst, lan, startup, wanT = t, clan, cstart, cwan
			}
		}
		wantFlat := lan + startup + wanT*3
		if got := g.Predict(ata(m), FlatDirect, nil); math.Abs(got-wantFlat) > 1e-12 {
			t.Fatalf("m=%d: flat = %v, want closed form %v", m, got, wantFlat)
		}

		// Relay legs: PR 1's gather/exchange/scatter.
		var gather, xchg float64
		for _, s := range sizes {
			remote := n - s
			if s > 1 {
				lt := float64(s-1) * (sig.H.Alpha + float64(remote*m)*sig.H.Beta)
				if lt > gather {
					gather = lt
				}
			}
			maxPer, total := 0, 0
			for _, d := range sizes {
				if d != s { // sizes are distinct here
					b := s * d * m
					total += b
					if b > maxPer {
						maxPer = b
					}
				}
			}
			perFlow := wan.Transfer(maxPer)
			wire := wan.Alpha() + float64(total)*wan.BetaWire
			xt := perFlow
			if wire > xt {
				xt = wire
			}
			if xt > xchg {
				xchg = xt
			}
		}
		intra := 0.0
		for _, s := range sizes {
			if it := sig.Predict(s, m); it > intra {
				intra = it
			}
		}
		wantHG := intra + xchg + 2*gather*1.5
		if got := g.Predict(ata(m), HierGather, nil); math.Abs(got-wantHG) > 1e-12 {
			t.Fatalf("m=%d: hier-gather = %v, want closed form %v", m, got, wantHG)
		}

		phase0 := 0.0
		for _, s := range sizes {
			inflated := (n - 1) * m / (s - 1)
			if pt := sig.Predict(s, inflated); pt > phase0 {
				phase0 = pt
			}
		}
		wantHD := phase0 + xchg*2.5 + gather
		if got := g.Predict(ata(m), HierDirect, nil); math.Abs(got-wantHD) > 1e-12 {
			t.Fatalf("m=%d: hier-direct = %v, want closed form %v", m, got, wantHD)
		}
	}
}

func TestGridSingleClusterDegeneratesToSignature(t *testing.T) {
	sig := Signature{H: Hockney{Alpha: 50e-6, Beta: 8e-9}, Gamma: 2}
	g := GridModel{Root: LeafNode(6, sig)}
	m := 32 << 10
	want := sig.Predict(6, m)
	if got := g.Predict(ata(m), FlatDirect, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("single-cluster flat = %v, want pure signature %v", got, want)
	}
	if got := g.Predict(ata(m), HierGather, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("single-cluster hier-gather = %v, want pure signature %v", got, want)
	}
}

// TestGridCoordSplitLowersGatherLeg: splitting a leaf's relay across C
// coordinators divides the per-member incast volume by C — the κ-priced
// local leg shrinks by exactly the modeled share, and the prediction
// with defaults (NumCoords 0 or 1, CoordBeta 0) is untouched.
func TestGridCoordSplitLowersGatherLeg(t *testing.T) {
	m := 64 << 10
	base := gridModelFixture()
	local1 := base.Parts(ata(m), HierGather).Scaled

	split := gridModelFixture()
	for _, lf := range split.Leaves() {
		lf.NumCoords = 2
	}
	local2 := split.Parts(ata(m), HierGather).Scaled

	sig := testSig()
	s, n := 4, 8
	want1 := 2 * float64(s-1) * (sig.H.Alpha + float64((n-s)*m)*sig.H.Beta)
	want2 := 2 * float64(s-1) * (sig.H.Alpha + float64((n-s)*m)*sig.H.Beta/2)
	if math.Abs(local1-want1) > 1e-12 {
		t.Fatalf("default local leg = %v, want closed form %v", local1, want1)
	}
	if math.Abs(local2-want2) > 1e-12 {
		t.Fatalf("2-way split local leg = %v, want closed form %v", local2, want2)
	}
	if split.Predict(ata(m), HierGather, nil) >= base.Predict(ata(m), HierGather, nil) {
		t.Fatal("2-way coordinator split must lower the hier-gather prediction")
	}

	// NumCoords == 1 is the explicit default, and the split clamps to
	// the leaf size.
	one := gridModelFixture()
	for _, lf := range one.Leaves() {
		lf.NumCoords = 1
	}
	if one.Predict(ata(m), HierGather, nil) != base.Predict(ata(m), HierGather, nil) {
		t.Fatal("NumCoords=1 must equal the default prediction")
	}
	over := gridModelFixture()
	for _, lf := range over.Leaves() {
		lf.NumCoords = 99
	}
	clamped := gridModelFixture()
	for _, lf := range clamped.Leaves() {
		lf.NumCoords = 4 // leaf size
	}
	if over.Predict(ata(m), HierGather, nil) != clamped.Predict(ata(m), HierGather, nil) {
		t.Fatal("NumCoords beyond the leaf size must clamp to it")
	}
}

// TestGridCoordBetaHeadroomAsymmetry: measured coordinator headroom
// replaces the nominal LAN gap in the local legs and floors the tier
// exchange by coordinator-port serialization — a degraded coordinator
// NIC raises both hierarchical predictions, and a C-way split wins part
// of it back.
func TestGridCoordBetaHeadroomAsymmetry(t *testing.T) {
	m := 64 << 10
	base := gridModelFixture()
	xchgBase := base.Parts(ata(m), HierGather).B

	slow := gridModelFixture()
	slowBeta := 100 * testSig().H.Beta // a NIC two orders slower
	for _, lf := range slow.Leaves() {
		lf.CoordBeta = slowBeta
	}
	ps := slow.Parts(ata(m), HierGather)
	xchgSlow, localSlow := ps.B, ps.Scaled
	if xchgSlow <= xchgBase {
		t.Fatalf("slow coordinator NIC must floor the exchange leg (%v -> %v)", xchgBase, xchgSlow)
	}
	// The floor is exactly α + total·CoordBeta for the worst child
	// (both children symmetric here: 4·4·m outbound bytes).
	wantFloor := testWan().Alpha() + float64(4*4*m)*slowBeta
	if math.Abs(xchgSlow-wantFloor) > 1e-12 {
		t.Fatalf("exchange floor = %v, want port serialization %v", xchgSlow, wantFloor)
	}
	if slow.Predict(ata(m), HierGather, nil) <= base.Predict(ata(m), HierGather, nil) {
		t.Fatal("degraded coordinator NIC must raise the hier-gather prediction")
	}
	if slow.Predict(ata(m), HierDirect, nil) <= base.Predict(ata(m), HierDirect, nil) {
		t.Fatal("degraded coordinator NIC must raise the hier-direct prediction")
	}

	// Splitting across two (equally slow) ports halves both the incast
	// share and the port floor's per-port volume.
	split := gridModelFixture()
	for _, lf := range split.Leaves() {
		lf.CoordBeta = slowBeta
		lf.NumCoords = 2
	}
	ps = split.Parts(ata(m), HierGather)
	xchgSplit, localSplit := ps.B, ps.Scaled
	if xchgSplit >= xchgSlow || localSplit >= localSlow {
		t.Fatalf("2-way split must relieve the port bottleneck (xchg %v->%v, local %v->%v)",
			xchgSlow, xchgSplit, localSlow, localSplit)
	}
}
