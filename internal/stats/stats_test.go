package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = 3 + 2*xi
	}
	a, b, err := LinFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 3, 1e-9) || !almostEq(b, 2, 1e-9) {
		t.Fatalf("fit = (%v, %v), want (3, 2)", a, b)
	}
}

func TestLinFitDegenerate(t *testing.T) {
	if _, _, err := LinFit([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point must be degenerate")
	}
	if _, _, err := LinFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x must be degenerate")
	}
}

func TestWeightedLinFitFollowsHeavyPoints(t *testing.T) {
	// Two clusters disagree; the heavily weighted one wins.
	x := []float64{1, 2, 3, 4}
	y := []float64{10, 20, 5, 5} // first pair on y=10x, second flat
	wHeavyFirst := []float64{1000, 1000, 1, 1}
	_, b1, err := weightedLinFit(x, y, wHeavyFirst)
	if err != nil {
		t.Fatal(err)
	}
	wHeavySecond := []float64{1, 1, 1000, 1000}
	_, b2, err := weightedLinFit(x, y, wHeavySecond)
	if err != nil {
		t.Fatal(err)
	}
	if !(b1 > 5 && b2 < 5) {
		t.Fatalf("weights ignored: b1=%v b2=%v", b1, b2)
	}
}

func TestScaleFit(t *testing.T) {
	x := []float64{1, 2, 4}
	y := []float64{2.5, 5, 10}
	b, err := ScaleFit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b, 2.5, 1e-9) {
		t.Fatalf("scale = %v, want 2.5", b)
	}
}

func TestTwoRegressorFitRecoversPlane(t *testing.T) {
	// y = 4·x1 + 0.25·x2, with x2 an indicator-like regressor.
	x1 := []float64{0.1, 0.2, 0.5, 1.0, 2.0, 4.0}
	x2 := []float64{0, 0, 1, 1, 1, 1}
	y := make([]float64, len(x1))
	for i := range y {
		y[i] = 4*x1[i] + 0.25*x2[i]
	}
	b1, b2, err := TwoRegressorFit(x1, x2, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b1, 4, 1e-9) || !almostEq(b2, 0.25, 1e-9) {
		t.Fatalf("fit = (%v, %v), want (4, 0.25)", b1, b2)
	}
}

func TestTwoRegressorFitZeroSecondRegressor(t *testing.T) {
	// All-zero x2 degrades to a scale fit instead of failing.
	x1 := []float64{1, 2, 3}
	x2 := []float64{0, 0, 0}
	y := []float64{2, 4, 6}
	b1, b2, err := TwoRegressorFit(x1, x2, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b1, 2, 1e-9) || b2 != 0 {
		t.Fatalf("fit = (%v, %v), want (2, 0)", b1, b2)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 || Min(xs) != 2 || Max(xs) != 6 {
		t.Fatalf("mean/min/max wrong: %v %v %v", Mean(xs), Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty/short input handling wrong")
	}
}

func TestErrMetrics(t *testing.T) {
	if !almostEq(relErr(110, 100), 0.10, 1e-12) {
		t.Fatalf("relErr = %v", relErr(110, 100))
	}
	if !math.IsNaN(relErr(1, 0)) {
		t.Fatal("relErr with zero estimate should be NaN")
	}
	m := MeanAbsRelErr([]float64{110, 90}, []float64{100, 100})
	if !almostEq(m, 0.10, 1e-12) {
		t.Fatalf("MeanAbsRelErr = %v", m)
	}
}

func TestLinFitPropertyRecoversRandomLines(t *testing.T) {
	prop := func(a8, b8 int8, n8 uint8) bool {
		a, b := float64(a8)/4, float64(b8)/4
		n := int(n8%20) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = float64(i + 1)
			y[i] = a + b*x[i]
		}
		ga, gb, err := LinFit(x, y)
		return err == nil && almostEq(ga, a, 1e-6) && almostEq(gb, b, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(vals, q1) <= Quantile(vals, q2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
