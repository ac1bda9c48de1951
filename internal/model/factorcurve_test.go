package model

import (
	"math"
	"testing"

	"repro/internal/coll"
)

func TestFactorCurveAt(t *testing.T) {
	// Empty curve: the identity factor at every size.
	var zero FactorCurve
	if !zero.IsZero() || zero.At(0) != 1 || zero.At(1<<20) != 1 {
		t.Fatalf("zero curve not identity: At(1M)=%v", zero.At(1<<20))
	}

	// Scalar-compatible single point: the same factor at every size,
	// bit-identical to the scalar it wraps.
	s := ScalarFactor(2.41)
	for _, b := range []int{0, 1, 8 << 10, 64 << 10, 1 << 30} {
		if got := s.At(b); got != 2.41 {
			t.Fatalf("scalar curve At(%d) = %v, want 2.41", b, got)
		}
	}

	c := CurveOf(
		FactorPoint{Bytes: 8 << 10, Factor: 4},
		FactorPoint{Bytes: 64 << 10, Factor: 2},
		FactorPoint{Bytes: 256 << 10, Factor: 1},
	)
	// Terminal-value extrapolation on both ends.
	if got := c.At(1 << 10); got != 4 {
		t.Fatalf("below-curve lookup = %v, want first factor 4", got)
	}
	if got := c.At(1 << 30); got != 1 {
		t.Fatalf("beyond-curve lookup = %v, want last factor 1", got)
	}
	// Exact hits return the fitted factors.
	for _, p := range c.Points {
		if got := c.At(p.Bytes); math.Abs(got-p.Factor) > 1e-12 {
			t.Fatalf("At(%d) = %v, want fitted %v", p.Bytes, got, p.Factor)
		}
	}
	// Log-size interpolation: 16 KiB sits at log-fraction 1/3 of the
	// 8k→64k segment (8k·2^1 of the 2^3-wide octave span).
	want := 4 + (math.Log(2)/math.Log(8))*(2-4)
	if got := c.At(16 << 10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("At(16k) = %v, want log-interpolated %v", got, want)
	}
	// Monotone bracketing on a monotone curve.
	if mid := c.At(100 << 10); mid < 1 || mid > 2 {
		t.Fatalf("At(100k) = %v outside its bracket [1, 2]", mid)
	}
}

func TestCurveOfSanitizes(t *testing.T) {
	// Unsorted, duplicated and non-finite points must come out as a
	// sorted, distinct, finite curve — fitting noise cannot poison
	// lookups.
	c := CurveOf(
		FactorPoint{Bytes: 64 << 10, Factor: 2},
		FactorPoint{Bytes: 8 << 10, Factor: math.NaN()},
		FactorPoint{Bytes: 8 << 10, Factor: 3},
		FactorPoint{Bytes: 64 << 10, Factor: 99}, // duplicate size: dropped
		FactorPoint{Bytes: 16 << 10, Factor: math.Inf(1)},
	)
	if len(c.Points) != 2 {
		t.Fatalf("sanitized curve has %d points, want 2: %+v", len(c.Points), c.Points)
	}
	if c.Points[0] != (FactorPoint{Bytes: 8 << 10, Factor: 3}) ||
		c.Points[1] != (FactorPoint{Bytes: 64 << 10, Factor: 2}) {
		t.Fatalf("sanitized curve wrong: %+v", c.Points)
	}
	for _, b := range []int{4 << 10, 16 << 10, 1 << 20} {
		if got := c.At(b); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("At(%d) = %v, must be finite", b, got)
		}
	}
	// Hand-built zero-width segments are skipped, not divided by.
	dup := FactorCurve{Points: []FactorPoint{{Bytes: 8 << 10, Factor: 3}, {Bytes: 8 << 10, Factor: 5}}}
	if got := dup.At(8 << 10); math.IsNaN(got) {
		t.Fatalf("zero-width segment lookup = NaN")
	}
}

// TestWANTransferZeroWidthSegment pins the NaN regression: a curve
// whose consecutive points share one Bytes value (duplicate probe
// sizes) must not divide by the zero segment width.
func TestWANTransferZeroWidthSegment(t *testing.T) {
	w := WANModel{
		Curve: []WANPoint{
			{Bytes: 2 << 10, T: 0.020},
			{Bytes: 64 << 10, T: 0.030},
			{Bytes: 64 << 10, T: 0.034}, // duplicate probe size
			{Bytes: 1 << 20, T: 0.180},
		},
		BetaWire: 8e-8,
	}
	for _, b := range []int{1 << 10, 32 << 10, 64 << 10, 128 << 10, 4 << 20} {
		got := w.Transfer(b)
		if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
			t.Fatalf("Transfer(%d) = %v with a zero-width segment, want finite positive", b, got)
		}
	}
	// An exact hit on the duplicated size resolves through the
	// preceding segment's interpolation (its first measurement); sizes
	// beyond it continue from the later one.
	if got := w.Transfer(64 << 10); got != 0.030 {
		t.Fatalf("Transfer at duplicated size = %v, want 0.030", got)
	}
	if got := w.Transfer(65 << 10); got <= 0.030 || got >= 0.180 {
		t.Fatalf("Transfer just past duplicated size = %v, want within (0.034, 0.180) segment", got)
	}
}

// TestGridSinglePointCurveBitIdentical pins the scalar reduction the
// acceptance criteria demand: a model whose factors are single-point
// curves must predict bit-identically to the same factors spelled as
// multi-point curves with every point equal — the lookup path can
// change which point it reads, never the value it multiplies. (The
// reduction to the pre-curve scalar closed forms is pinned by
// TestGridTwoLevelMatchesClosedForm, whose expectations are computed
// from bare scalars.)
func TestGridSinglePointCurveBitIdentical(t *testing.T) {
	flat := func(f float64) FactorCurve {
		return CurveOf(
			FactorPoint{Bytes: 8 << 10, Factor: f},
			FactorPoint{Bytes: 64 << 10, Factor: f},
			FactorPoint{Bytes: 256 << 10, Factor: f},
		)
	}
	scalar := threeLevelFixture()
	scalar.OverlapGamma = ScalarFactor(2.5)
	scalar.GatherGamma = ScalarFactor(1.5)

	curved := threeLevelFixture()
	curved.OverlapGamma = flat(2.5)
	curved.GatherGamma = flat(1.5)
	curved.Root.Wan.Gamma = flat(3)
	for _, c := range curved.Root.Children {
		c.Wan.Gamma = flat(2)
	}

	n := scalar.TotalNodes()
	for _, m := range []int{4 << 10, 64 << 10, 512 << 10} {
		if a, b := scalar.Predict(ata(m), FlatDirect, nil), curved.Predict(ata(m), FlatDirect, nil); a != b {
			t.Fatalf("m=%d: flat scalar %v != flat curve %v", m, a, b)
		}
		if a, b := scalar.Predict(ata(m), HierGather, nil), curved.Predict(ata(m), HierGather, nil); a != b {
			t.Fatalf("m=%d: hier-gather scalar %v != curve %v", m, a, b)
		}
		if a, b := scalar.Predict(ata(m), HierDirect, nil), curved.Predict(ata(m), HierDirect, nil); a != b {
			t.Fatalf("m=%d: hier-direct scalar %v != curve %v", m, a, b)
		}
	}
	// Skewed matrices exercise the effective-size lookups; equal-value
	// curves must still be bit-identical to the single-point factors.
	hot := coll.UniformSizeMatrix(n, 64<<10)
	for j := 1; j < n; j++ {
		hot.Set(0, j, 8*64<<10)
	}
	if a, b := scalar.Predict(coll.Irregular(hot), FlatDirect, nil), curved.Predict(coll.Irregular(hot), FlatDirect, nil); a != b {
		t.Fatalf("flatV scalar %v != curve %v", a, b)
	}
	if a, b := scalar.Predict(coll.Irregular(hot), HierGather, nil), curved.Predict(coll.Irregular(hot), HierGather, nil); a != b {
		t.Fatalf("hier-gatherV scalar %v != curve %v", a, b)
	}
	if a, b := scalar.Predict(coll.Irregular(hot), HierDirect, nil), curved.Predict(coll.Irregular(hot), HierDirect, nil); a != b {
		t.Fatalf("hier-directV scalar %v != curve %v", a, b)
	}
}

// TestGridVCurveLookupIsSkewAware: with a factor curve that falls with
// size, a skewed matrix whose local exchange runs at fat per-pair
// sizes (the overlap intensity ω is indexed by) must be priced with
// the fat-size factor — below the factor fitted at the cross size —
// on exactly the legs ω multiplies.
func TestGridVCurveLookupIsSkewAware(t *testing.T) {
	const m = 64 << 10
	mk := func(omega FactorCurve) GridModel {
		g := gridModelFixture()
		g.OverlapGamma = omega
		return g
	}
	falling := CurveOf(
		FactorPoint{Bytes: 8 << 10, Factor: 4},
		FactorPoint{Bytes: 64 << 10, Factor: 3},
		FactorPoint{Bytes: 512 << 10, Factor: 1.2},
	)
	// Local pairs at 8m, cross pairs at m: the worst leaf's effective
	// local size is 8m, so the ω lookup must land at the 8m fit, below
	// the cross-size factor.
	n := gridModelFixture().TotalNodes()
	fat := coll.NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if (i < 4) == (j < 4) {
				fat.Set(i, j, 8*m)
			} else {
				fat.Set(i, j, m)
			}
		}
	}
	curve := mk(falling).Predict(coll.Irregular(fat), HierDirect, nil)
	atCross := mk(ScalarFactor(falling.At(m))).Predict(coll.Irregular(fat), HierDirect, nil)
	atFat := mk(ScalarFactor(falling.At(8*m))).Predict(coll.Irregular(fat), HierDirect, nil)
	if curve >= atCross {
		t.Fatalf("fat local churn priced at the cross-size factor: curve %v !< scalar@m %v", curve, atCross)
	}
	if math.Abs(curve-atFat) > 1e-12*atFat {
		t.Fatalf("curve lookup = %v, want the 8m-size factor's prediction %v", curve, atFat)
	}
}

// TestGridVAllZeroMatrixPredictsZero pins the degenerate input: an
// exchange that owes no bytes sends nothing (the v-executors prune
// every message), so every v-prediction must be exactly 0 with no
// NaN/Inf anywhere in the decompositions.
func TestGridVAllZeroMatrixPredictsZero(t *testing.T) {
	for name, g := range map[string]GridModel{"2lvl": gridModelFixture(), "3lvl": threeLevelFixture()} {
		zero := coll.NewSizeMatrix(g.TotalNodes())
		if got := g.Predict(coll.Irregular(zero), FlatDirect, nil); got != 0 {
			t.Fatalf("%s: flat all-zero = %v, want 0", name, got)
		}
		if got := g.Predict(coll.Irregular(zero), HierGather, nil); got != 0 {
			t.Fatalf("%s: hier-gather all-zero = %v, want 0", name, got)
		}
		if got := g.Predict(coll.Irregular(zero), HierDirect, nil); got != 0 {
			t.Fatalf("%s: hier-direct all-zero = %v, want 0", name, got)
		}
		if p := g.Parts(coll.Irregular(zero), FlatDirect); p != (Parts{}) {
			t.Fatalf("%s: flat decomposition of all-zero = %+v, want zeros", name, p)
		}
	}
}
