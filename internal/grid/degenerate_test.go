package grid

import (
	"math"
	"strings"
	"testing"

	"repro/internal/coll"
)

// isFinite reports a usable model quantity: not NaN, not ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// TestOptionsValidation: sweeps a characterization cannot use must be
// rejected by NewPlanner with an error naming the field — not measured
// into NaN-spraying curves.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"wan-all-duplicates", func(o *Options) { o.WANSizes = []int{64 << 10, 64 << 10, 64 << 10} }, "WANSizes"},
		{"wan-nonpositive", func(o *Options) { o.WANSizes = []int{0, 2 << 10, 64 << 10} }, "WANSizes"},
		{"wan-negative", func(o *Options) { o.WANSizes = []int{-4, 2 << 10, 64 << 10} }, "WANSizes"},
		{"fit-too-few", func(o *Options) { o.FitSizes = []int{16 << 10, 64 << 10, 256 << 10} }, "FitSizes"},
		{"fit-duplicates-below-four", func(o *Options) {
			o.FitSizes = []int{16 << 10, 16 << 10, 64 << 10, 128 << 10}
		}, "FitSizes"},
		{"probe-nonpositive", func(o *Options) { o.ProbeSizes = []int{0} }, "ProbeSizes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := cheapOptions()
			tc.mut(&opt)
			_, err := NewPlanner(testTopo(), opt)
			if err == nil {
				t.Fatalf("invalid %s accepted", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestPlannerDuplicateWANSizesStayFinite pins the NaN regression of the
// probe→model pipeline: duplicated WANSizes used to measure curve
// points with equal Bytes, whose zero-width segment made
// WANModel.Transfer divide by zero and spray NaN into every
// prediction. characterizeTier now dedupes, so the curve carries
// distinct sizes and predictions stay finite.
func TestPlannerDuplicateWANSizesStayFinite(t *testing.T) {
	opt := cheapOptions()
	opt.WANSizes = []int{2 << 10, 32 << 10, 32 << 10, 128 << 10, 128 << 10, 512 << 10}
	pl, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	curve := pl.Model.Root.Wan.Curve
	if len(curve) != 4 {
		t.Fatalf("curve has %d points, want 4 deduplicated", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Bytes <= curve[i-1].Bytes {
			t.Fatalf("curve sizes not strictly increasing: %+v", curve)
		}
	}
	for _, m := range []int{8 << 10, 32 << 10, 200 << 10} {
		for _, pr := range pl.Predict(m) {
			if !isFinite(pr.T) || pr.T <= 0 {
				t.Fatalf("m=%d %v: non-finite or non-positive prediction %v", m, pr.Strategy, pr.T)
			}
		}
	}
}

// TestSelectCoordinatorsZeroHeadroomFinite pins the Inf regression: a
// node whose probed headroom comes back 0 used to make
// selectCoordinators set CoordBeta = 1/0 = +Inf, poisoning every
// subsequent prediction and the selection itself. Zero probes must
// fall back to the profile's nominal rate and never emit a non-finite
// CoordBeta.
func TestSelectCoordinatorsZeroHeadroomFinite(t *testing.T) {
	pl, err := NewPlanner(heteroTestTopo(4), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a probe failure: leaf 0's pair times all unmeasured,
	// leaf 1 with one dead entry.
	for i := range pl.Headroom[0] {
		pl.Headroom[0][i] = 0
	}
	pl.Headroom[1][1] = 0
	choices, err := pl.SelectCoordinators(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 2 {
		t.Fatalf("%d choices, want 2", len(choices))
	}
	for _, c := range choices {
		if !isFinite(c.Rate) || !isFinite(c.PredT) || c.PredT <= 0 {
			t.Fatalf("non-finite selection outcome: %+v", c)
		}
	}
	for l, lf := range pl.Model.Leaves() {
		if !isFinite(lf.CoordBeta) {
			t.Fatalf("leaf %d: non-finite CoordBeta %v", l, lf.CoordBeta)
		}
	}
	for _, pr := range pl.Predict(64 << 10) {
		if !isFinite(pr.T) || pr.T <= 0 {
			t.Fatalf("%v: non-finite prediction %v after zero-headroom selection", pr.Strategy, pr.T)
		}
	}
}

// TestPlannerAllZeroMatrixDegenerates pins the degenerate irregular
// input end to end: an all-zero SizeMatrix predicts exactly 0 for
// every strategy, selects all-default coordinators without NaN/Inf,
// and simulates without error.
func TestPlannerAllZeroMatrixDegenerates(t *testing.T) {
	topo := testTopo()
	pl, err := NewPlanner(topo, cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	zero := coll.NewSizeMatrix(pl.Model.TotalNodes())
	for _, pr := range pl.PredictV(zero) {
		if pr.T != 0 {
			t.Fatalf("%v: all-zero matrix predicted %v, want 0", pr.Strategy, pr.T)
		}
	}
	choices, err := pl.SelectCoordinatorsV(zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range choices {
		if !c.Default {
			t.Fatalf("all-zero matrix selected a non-default coordinator: %+v", c)
		}
		if !isFinite(c.PredT) {
			t.Fatalf("non-finite PredT on all-zero selection: %+v", c)
		}
	}
	for l, lf := range pl.Model.Leaves() {
		if lf.NumCoords != 0 || lf.CoordBeta != 0 {
			t.Fatalf("leaf %d model touched by all-zero selection: C=%d β=%v", l, lf.NumCoords, lf.CoordBeta)
		}
	}
	for _, strat := range Strategies {
		simT := simulate(t, topo, coll.Irregular(zero), strat, nil, 7, 0, 1)
		if !isFinite(simT) || simT < 0 {
			t.Fatalf("%v: all-zero simulated time %v", strat, simT)
		}
	}
}

// TestPlannerSingleProbeSizeIsScalarCompatible: a one-size probe sweep
// must produce single-point factor curves — the scalar-compatible
// configuration whose predictions the model-level pins prove
// bit-identical to the pre-curve scalar-factor model.
func TestPlannerSingleProbeSizeIsScalarCompatible(t *testing.T) {
	pl, err := NewPlanner(testTopo(), cheapOptions()) // ProbeSizes: {64k}
	if err != nil {
		t.Fatal(err)
	}
	for name, curve := range map[string]int{
		"γ_wan": len(pl.Model.Root.Wan.Gamma.Points),
		"ω":     len(pl.Model.OverlapGamma.Points),
		"κ":     len(pl.Model.GatherGamma.Points),
	} {
		if curve != 1 {
			t.Fatalf("%s curve has %d points under a single probe size, want 1", name, curve)
		}
	}
	// Scalar compatibility: the lookup is size-independent.
	for _, c := range []struct {
		name  string
		curve interface{ At(int) float64 }
	}{
		{"γ_wan", pl.Model.Root.Wan.Gamma},
		{"ω", pl.Model.OverlapGamma},
		{"κ", pl.Model.GatherGamma},
	} {
		if c.curve.At(1<<10) != c.curve.At(1<<20) {
			t.Fatalf("%s single-point curve not constant across sizes", c.name)
		}
	}
}
