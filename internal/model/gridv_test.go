package model

import (
	"math"
	"testing"

	"repro/internal/coll"
)

// relClose reports |a−b| ≤ tol·max(|a|,|b|, 1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestGridVUniformBitEqual pins the uniform ≡ irregular identity: fed a
// uniform matrix, every irregular prediction must be bit-equal to the
// regular All-to-All at m — on two-level and 3-level fixtures, with
// non-trivial contention factors and coordinator splits. m = 0 is the
// boundary row: an exchange that owes no bytes predicts exactly 0 under
// either spelling and decomposes to zeros, never to a negative term.
func TestGridVUniformBitEqual(t *testing.T) {
	mk := func(g GridModel) GridModel {
		g.OverlapGamma = ScalarFactor(2.5)
		g.GatherGamma = ScalarFactor(1.5)
		return g
	}
	split := mk(gridModelFixture())
	split.Leaves()[0].NumCoords = 2
	split.Leaves()[0].CoordBeta = 3e-8
	for name, g := range map[string]GridModel{
		"2lvl": mk(gridModelFixture()), "3lvl": mk(threeLevelFixture()), "2lvl-split": split,
	} {
		n := g.TotalNodes()
		for _, m := range []int{0, 4 << 10, 64 << 10, 512 << 10} {
			w := coll.Irregular(coll.UniformSizeMatrix(n, m))
			for _, s := range []Strategy{FlatDirect, HierGather, HierDirect} {
				got, want := g.Predict(w, s, nil), g.Predict(ata(m), s, nil)
				if got != want || (m == 0) != (want == 0) {
					t.Fatalf("%s m=%d %v: irregular = %v, regular = %v, want bit-equal and zero only at m=0",
						name, m, s, got, want)
				}
				if m == 0 && g.Parts(ata(m), s) != (Parts{}) {
					t.Fatalf("%s %v: decomposition at m=0 = %+v, want zeros", name, s, g.Parts(ata(m), s))
				}
			}
		}
	}
}

// TestGridVPartsUniformReduction checks the matrix volume source itself
// (Predict would route a uniform matrix to the counts source): forced
// onto a uniform matrix, it must reproduce the counts source bit for bit
// on every tier leg, every flat term, the hier-direct opening phase and
// exchange, the intra leg and every factor lookup size. Only the
// leaf-local relay leg is held to 1e-12 instead: counts prices it as
// (s−1)·(α + V·β/C) per member, the matrix as (s−1)·α + ΣV·β/C over the
// summed bytes, and the two associations round differently.
func TestGridVPartsUniformReduction(t *testing.T) {
	const tol = 1e-12
	for name, g := range map[string]GridModel{"2lvl": gridModelFixture(), "3lvl": threeLevelFixture()} {
		n := g.TotalNodes()
		for _, m := range []int{8 << 10, 64 << 10, 512 << 10} {
			byCount := counts{kind: coll.KindAlltoall, m: m, n: n}
			byMatrix := matrix{sz: coll.UniformSizeMatrix(n, m), span: g.rankRanges()}

			x1, s1 := g.tierLegs(byCount)
			x2, s2 := g.tierLegs(byMatrix)
			if x1 != x2 || s1 != s2 {
				t.Fatalf("%s m=%d: matrix tier legs (%v,%v), want bit-equal (%v,%v)", name, m, x2, s2, x1, s1)
			}
			for _, s := range []Strategy{FlatDirect, HierGather, HierDirect} {
				p1, e1 := g.parts(byCount, s)
				p2, e2 := g.parts(byMatrix, s)
				if e1 != m || e2 != m {
					t.Fatalf("%s m=%d %v: lookup sizes %d/%d, want m", name, m, s, e1, e2)
				}
				// The leaf-local leg is HierGather's Scaled term and part
				// of HierDirect's closing B term.
				exactB, exactScaled := s != HierDirect, s != HierGather
				if p1.A != p2.A ||
					(exactB && p1.B != p2.B) || !relClose(p1.B, p2.B, tol) ||
					(exactScaled && p1.Scaled != p2.Scaled) || !relClose(p1.Scaled, p2.Scaled, tol) {
					t.Fatalf("%s m=%d %v: matrix parts %+v, want counts parts %+v", name, m, s, p2, p1)
				}
			}
		}
	}
}

// TestGridVSkewShiftsLegs: a hotspot row adds bytes to exactly the legs
// that carry it — predictions rise above the uniform base — while a
// block-diagonal matrix with zero cross-cluster traffic collapses every
// WAN leg to zero and leaves only local terms.
func TestGridVSkewShiftsLegs(t *testing.T) {
	g := gridModelFixture() // 4+4 nodes, one WAN tier
	n := g.TotalNodes()
	const m = 64 << 10

	base := coll.UniformSizeMatrix(n, m)
	hot := coll.UniformSizeMatrix(n, m)
	for j := 1; j < n; j++ {
		hot.Set(0, j, 8*m)
	}
	if g.Predict(coll.Irregular(hot), FlatDirect, nil) <= g.Predict(coll.Irregular(base), FlatDirect, nil) {
		t.Fatal("hotspot row must raise the flat prediction")
	}
	if g.Predict(coll.Irregular(hot), HierGather, nil) <= g.Predict(coll.Irregular(base), HierGather, nil) {
		t.Fatal("hotspot row must raise the hier-gather prediction")
	}
	if g.Predict(coll.Irregular(hot), HierDirect, nil) <= g.Predict(coll.Irregular(base), HierDirect, nil) {
		t.Fatal("hotspot row must raise the hier-direct prediction")
	}

	// The hotspot sits in cluster 0: its outbound cut grows 8-fold, the
	// reverse direction keeps the uniform cut. The worst-child exchange
	// leg must price the grown cut exactly.
	xchg := g.Parts(coll.Irregular(hot), HierGather).B
	wantCut := 8*m*4 + 3*4*m // rank 0's 4 remote pairs at 8m, ranks 1–3 at m each
	perFlow := g.Root.Wan.Transfer(wantCut)
	wire := g.Root.Wan.Alpha() + float64(wantCut)*g.Root.Wan.BetaWire
	want := perFlow
	if wire > want {
		want = wire
	}
	// Exchange leg includes the upward-gather incast (zero here: the
	// root has no outside), so the worst-child exchange is the whole leg.
	if math.Abs(xchg-want) > 1e-12*want {
		t.Fatalf("hotspot exchange leg = %v, want cut-priced %v", xchg, want)
	}

	local := coll.NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (i < 4) == (j < 4) {
				local.Set(i, j, m)
			}
		}
	}
	p := g.Parts(coll.Irregular(local), HierGather)
	intra := p.A
	if p.B != 0 || p.Scaled != 0 {
		t.Fatalf("zero cross-traffic: WAN and leaf relay legs = %v/%v, want 0/0", p.B, p.Scaled)
	}
	if intra <= 0 {
		t.Fatal("zero cross-traffic: intra leg must still price the local exchange")
	}
	if f := g.Predict(coll.Irregular(local), FlatDirect, nil); math.Abs(f-intra) > 1e-12*intra {
		t.Fatalf("zero cross-traffic flat = %v, want pure local term %v", f, intra)
	}
}

// TestGridVMatrixValidation: a matrix of the wrong rank count must be
// rejected loudly, not silently mispriced.
func TestGridVMatrixValidation(t *testing.T) {
	g := gridModelFixture()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank-count mismatch")
		}
	}()
	g.Predict(coll.Irregular(coll.UniformSizeMatrix(3, 1024)), FlatDirect, nil)
}
